//! `r2d2` — command-line driver for the R2D2 reproduction.
//!
//! ```text
//! r2d2 list                               list the Table 2 workload zoo
//! r2d2 analyze  <kernel.kasm>             print per-register coefficient vectors
//! r2d2 transform <kernel.kasm>            print the decoupled kernel + metadata
//! r2d2 run <kernel.kasm> [options]        execute a kernel on the timing simulator
//!     --grid X[,Y[,Z]]      grid dimensions           (default 1)
//!     --block X[,Y[,Z]]     block dimensions          (default 32)
//!     --buf BYTES           allocate a buffer, pass its address as the next param
//!     --param N             pass a scalar parameter
//!     --r2d2                run the R2D2-transformed kernel
//!     --sms N               number of SMs             (default 80)
//!     --lockstep            use the cycle-by-cycle reference loop
//!                           (default: event-driven, bit-identical)
//!     --threads N           shard the timing loop across N worker threads
//!                           (default 1; results are bit-identical)
//! r2d2 workload <NAME> [--model M] [--full]
//!     run one workload under a machine model and print its stats
//!     (M: baseline | dac | darsie | darsie-scalar | r2d2; default baseline)
//! r2d2 profile <workload> <model> [options]
//!     run one workload with the stall-attribution profiler attached and
//!     export a Chrome trace_event JSON + CSV time series
//!     --buckets N           target time-series bucket count (default 256)
//!     --out DIR             artifact directory (default results/profiles/)
//!     --threads N           shard the simulation across N threads
//!     --sms N               number of SMs
//!     --full                evaluation-sized inputs (default: small)
//!     (workload: any zoo name, BP@n<log>, or the micro ids vecadd/saxpy)
//! r2d2 trace <kernel.kasm> [run options] [--limit N]
//!     print the first N dynamic warp instructions (default 64)
//! r2d2 sweep list                         list figure job sets + cache state
//! r2d2 sweep run <set>|all [options]      run a figure's jobs in parallel
//!     --jobs N              worker threads            (default: all cores)
//!     --threads N           shard each simulation across N threads
//!                           (default: $R2D2_THREADS, then 1; bit-identical)
//!     --no-cache            re-simulate even when cached (refreshes entries)
//!     --size small|full     workload scale            (default full)
//!     --profile             attach the stall profiler to every job (writes
//!                           traces to results/profiles/; separate cache keys)
//! r2d2 sweep clean                        delete all cached results
//! r2d2 serve [options]                    run the resident simulation service
//!     --addr HOST:PORT      bind address              (default 127.0.0.1:8787)
//!     --workers N           job worker threads        (default: all cores)
//!     --queue-cap N         pending-queue bound       (default 256)
//!     --timeout SECS        per-job watchdog          (default 600)
//!     --no-cache            re-simulate even when cached
//!     --quiet               suppress per-request log lines
//! r2d2 dispatch --backends A,B,... [options]
//!     run the multi-node dispatch tier over running serve nodes
//!     --backends LIST       comma-separated backend HOST:PORT list (required)
//!     --addr HOST:PORT      bind address              (default 127.0.0.1:8786)
//!     --probe-interval-ms N health-probe sweep interval (default 500)
//!     --quiet               suppress per-request log lines
//! r2d2 submit <workload> <model> [options]
//!     submit one job to a running service or dispatcher
//!     --addr HOST:PORT      service address           (default 127.0.0.1:8787)
//!     --wait                block until the job completes, print the record
//!     --full                evaluation-sized inputs   (default: small)
//!     --sms N               override the SM count
//!     --threads N           shard the simulation across N threads
//!     (model: baseline | dac | darsie | darsie-scalar | r2d2 | ideals)
//! r2d2 submit --set <name> [--addr HOST:PORT]
//!     batch-submit a named figure set (see `r2d2 sweep list`); prints the
//!     per-job ids
//! r2d2 submit --batch <file.json> [--addr HOST:PORT]
//!     batch-submit a JSON array of JobSpecs from a file
//! r2d2 cancel <id> [--addr HOST:PORT]
//!     cancel a queued or running job by id (DELETE /jobs/<id>)
//! r2d2 watch <id> [--addr HOST:PORT]
//!     stream a job's progress snapshots as NDJSON until it completes
//! ```
//!
//! `sweep` shares its job sets — and therefore its content-addressed cache
//! under `results/cache/` — with the `cargo bench` figure targets.

use r2d2_core::analyzer::analyze;
use r2d2_core::transform::{make_launch, transform};
use r2d2_energy::EnergyModel;
use r2d2_isa::parse_kernel;
use r2d2_sim::{Dim3, GlobalMem, GpuConfig, Launch, LoopKind, SimSession, Stats};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("transform") => cmd_transform(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("workload") => cmd_workload(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("dispatch") => cmd_dispatch(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("cancel") => cmd_cancel(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        _ => {
            eprintln!(
                "usage: r2d2 <list|analyze|transform|run|trace|workload|profile|sweep|serve|dispatch|submit|cancel|watch> ..."
            );
            eprintln!("options: see the header comment of crates/cli/src/main.rs");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn cmd_list() -> CliResult {
    println!("{:<8} suite", "name");
    for (n, s) in r2d2_workloads::NAMES {
        println!("{n:<8} {s}");
    }
    Ok(())
}

fn load_kernel(args: &[String]) -> Result<r2d2_isa::Kernel, Box<dyn std::error::Error>> {
    let path = args.first().ok_or("missing kernel file")?;
    let src = std::fs::read_to_string(path)?;
    let k = parse_kernel(&src)?;
    k.validate()?;
    Ok(k)
}

fn cmd_analyze(args: &[String]) -> CliResult {
    let k = load_kernel(args)?;
    let a = analyze(&k);
    println!("{k}");
    println!(
        "linear registers ({} of {} GP regs):",
        a.linear.len(),
        k.num_regs()
    );
    let mut regs: Vec<_> = a.linear.iter().collect();
    regs.sort_by_key(|(r, _)| r.0);
    for (r, info) in regs {
        println!("  %r{:<3} (pc {:>3}) = {}", r.0, info.def_pc, info.vec);
    }
    if !a.multi_write.is_empty() {
        let list: Vec<String> = a.multi_write.iter().map(|r| format!("%r{}", r.0)).collect();
        println!(
            "multi-write (loop/divergence) registers: {}",
            list.join(", ")
        );
    }
    let demanded = a.demanded(&k);
    let list: Vec<String> = demanded.iter().map(|r| format!("%r{}", r.0)).collect();
    println!("demanded by non-linear instructions: {}", list.join(", "));
    Ok(())
}

fn cmd_transform(args: &[String]) -> CliResult {
    let k = load_kernel(args)?;
    let r2 = transform(&k);
    println!("{}", r2.kernel);
    println!(
        "starting PCs: coef=0 tidx={} bidx={} main={}",
        r2.meta.tidx_start, r2.meta.bidx_start, r2.meta.main_start
    );
    println!(
        "registers: {} lr / {} tr / {} cr; register table: {:?}",
        r2.meta.n_lr,
        r2.meta.n_tr,
        r2.meta.n_cr,
        &r2.meta.lr_tr[..r2.meta.n_lr]
    );
    println!(
        "removed {} of {} static instructions ({} groups beyond the 16-entry table)",
        r2.report.removed_instrs, r2.report.original_static, r2.report.spilled_groups
    );
    Ok(())
}

fn parse_dim(s: &str) -> Result<Dim3, Box<dyn std::error::Error>> {
    let parts: Vec<u32> = s.split(',').map(|p| p.parse()).collect::<Result<_, _>>()?;
    Ok(match parts.as_slice() {
        [x] => Dim3::d1(*x),
        [x, y] => Dim3::d2(*x, *y),
        [x, y, z] => Dim3::d3(*x, *y, *z),
        _ => return Err("dimensions must be X[,Y[,Z]]".into()),
    })
}

fn print_stats(stats: &Stats) {
    let energy = EnergyModel::volta().breakdown(&stats.events);
    println!("cycles:            {}", stats.cycles);
    println!(
        "warp instructions: {} (+{} skipped)",
        stats.warp_instrs, stats.skipped_warp_instrs
    );
    println!("thread instrs:     {}", stats.thread_instrs);
    println!("phases (c/t/b/m):  {:?}", stats.warp_instrs_by_phase);
    println!(
        "memory:            L1 {}/{} hits, L2 {}/{} hits, {} DRAM txns",
        stats.l1_hits,
        stats.l1_hits + stats.l1_misses,
        stats.l2_hits,
        stats.l2_hits + stats.l2_misses,
        stats.dram_txns
    );
    println!("energy:            {:.3} uJ", energy.total_pj() / 1e6);
}

fn cmd_run(args: &[String]) -> CliResult {
    let k = load_kernel(args)?;
    let mut grid = Dim3::d1(1);
    let mut block = Dim3::d1(32);
    let mut gmem = GlobalMem::new();
    let mut params: Vec<u64> = Vec::new();
    let mut use_r2d2 = false;
    let mut sms = 80u32;
    let mut loop_kind = LoopKind::default();
    let mut threads = 1u32;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--grid" => {
                grid = parse_dim(args.get(i + 1).ok_or("--grid needs a value")?)?;
                i += 1;
            }
            "--block" => {
                block = parse_dim(args.get(i + 1).ok_or("--block needs a value")?)?;
                i += 1;
            }
            "--buf" => {
                let bytes: u64 = args.get(i + 1).ok_or("--buf needs a size")?.parse()?;
                params.push(gmem.alloc(bytes));
                i += 1;
            }
            "--param" => {
                params.push(
                    args.get(i + 1)
                        .ok_or("--param needs a value")?
                        .parse::<i64>()? as u64,
                );
                i += 1;
            }
            "--r2d2" => use_r2d2 = true,
            "--sms" => {
                sms = args.get(i + 1).ok_or("--sms needs a value")?.parse()?;
                i += 1;
            }
            "--lockstep" => loop_kind = LoopKind::Lockstep,
            "--threads" => {
                threads = args.get(i + 1).ok_or("--threads needs a value")?.parse()?;
                i += 1;
            }
            other => return Err(format!("unknown option {other}").into()),
        }
        i += 1;
    }
    let cfg = GpuConfig::default()
        .with_num_sms(sms)
        .with_loop_kind(loop_kind)
        .with_threads(threads);
    let stats = if use_r2d2 {
        let (launch, used) = make_launch(&cfg, &k, grid, block, params);
        println!(
            "launching {} kernel\n",
            if used {
                "the R2D2-transformed"
            } else {
                "the original (register-pressure fallback)"
            }
        );
        SimSession::new(&cfg).run(&launch, &mut gmem)?
    } else {
        let launch = Launch::new(k, grid, block, params);
        SimSession::new(&cfg).run(&launch, &mut gmem)?
    };
    print_stats(&stats);
    Ok(())
}

fn cmd_trace(args: &[String]) -> CliResult {
    use r2d2_sim::{functional, InstrEvent, Observer};
    let k = load_kernel(args)?;
    let mut grid = Dim3::d1(1);
    let mut block = Dim3::d1(32);
    let mut gmem = GlobalMem::new();
    let mut params: Vec<u64> = Vec::new();
    let mut limit = 64usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--grid" => {
                grid = parse_dim(args.get(i + 1).ok_or("--grid needs a value")?)?;
                i += 1;
            }
            "--block" => {
                block = parse_dim(args.get(i + 1).ok_or("--block needs a value")?)?;
                i += 1;
            }
            "--buf" => {
                let bytes: u64 = args.get(i + 1).ok_or("--buf needs a size")?.parse()?;
                params.push(gmem.alloc(bytes));
                i += 1;
            }
            "--param" => {
                params.push(
                    args.get(i + 1)
                        .ok_or("--param needs a value")?
                        .parse::<i64>()? as u64,
                );
                i += 1;
            }
            "--limit" => {
                limit = args.get(i + 1).ok_or("--limit needs a value")?.parse()?;
                i += 1;
            }
            other => return Err(format!("unknown option {other}").into()),
        }
        i += 1;
    }

    struct Tracer {
        left: usize,
        truncated: bool,
    }
    impl Observer for Tracer {
        fn on_instr(&mut self, ev: &InstrEvent<'_>) {
            if self.left == 0 {
                self.truncated = true;
                return;
            }
            self.left -= 1;
            println!(
                "blk {:>4} warp {:>2} pc {:>4} mask {:08x}  {}",
                ev.block, ev.warp_in_block, ev.pc, ev.active, ev.instr
            );
        }
    }
    let mut t = Tracer {
        left: limit,
        truncated: false,
    };
    let launch = Launch::new(k, grid, block, params);
    functional::run(&launch, &mut gmem, 100_000_000, Some(&mut t))?;
    if t.truncated {
        println!("... (truncated at {limit} instructions; raise with --limit)");
    }
    Ok(())
}

fn cmd_profile(args: &[String]) -> CliResult {
    use r2d2_harness::{execute_with_profiler, write_profile_artifacts_in, JobSpec};
    use r2d2_sim::{Profiler, StallCause};

    let workload = args.first().ok_or("missing workload id")?.clone();
    let model = timed_model(args.get(1).ok_or("missing model")?)?;
    let mut buckets = r2d2_sim::trace::DEFAULT_TARGET_BUCKETS;
    let mut out: Option<std::path::PathBuf> = None;
    let mut size = r2d2_workloads::Size::Small;
    let mut sms: Option<u32> = None;
    let mut threads = 0u32;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--buckets" => {
                buckets = args.get(i + 1).ok_or("--buckets needs a value")?.parse()?;
                i += 1;
            }
            "--out" => {
                out = Some(args.get(i + 1).ok_or("--out needs a value")?.into());
                i += 1;
            }
            "--sms" => {
                sms = Some(args.get(i + 1).ok_or("--sms needs a value")?.parse()?);
                i += 1;
            }
            "--threads" => {
                threads = args.get(i + 1).ok_or("--threads needs a value")?.parse()?;
                i += 1;
            }
            "--full" => size = r2d2_workloads::Size::Full,
            other => return Err(format!("unknown option {other}").into()),
        }
        i += 1;
    }

    let mut spec = JobSpec::new(&workload, size, model);
    spec.profile = true;
    spec.overrides.num_sms = sms;
    spec.threads = threads;
    let mut prof = Profiler::new(buckets);
    let rec = execute_with_profiler(&spec, &mut prof)?;
    let out = out.unwrap_or_else(r2d2_harness::default_profiles_dir);
    let trace_path = write_profile_artifacts_in(&out, &spec, &prof)?;

    let s = &rec.stats;
    let sm_cycles = s.cycles * prof.num_sms() as u64;
    let pct = |v: u64| {
        if sm_cycles == 0 {
            0.0
        } else {
            100.0 * v as f64 / sm_cycles as f64
        }
    };
    println!(
        "workload {workload} under {}: {} cycles on {} SMs",
        spec.model.name(),
        s.cycles,
        prof.num_sms()
    );
    println!(
        "attribution over {} SM-cycles (invariant {}):",
        sm_cycles,
        match prof.check_invariant() {
            Ok(()) => "holds".to_string(),
            Err(e) => format!("VIOLATED: {e}"),
        }
    );
    println!(
        "  {:<24} {:>12} {:>7.2}%",
        "issued/progress",
        s.issued_sm_cycles,
        pct(s.issued_sm_cycles)
    );
    for c in StallCause::ALL {
        let v = s.stall_sm_cycles[c.idx()];
        println!(
            "  {:<24} {:>12} {:>7.2}%",
            format!("stall_{}", c.name()),
            v,
            pct(v)
        );
    }
    println!(
        "time series: {} buckets x {} cycles",
        prof.buckets().len(),
        prof.bucket_width()
    );
    println!("wrote {}", trace_path.display());
    println!("      (+ .buckets.csv, .stalls.csv alongside)");
    Ok(())
}

fn cmd_sweep(args: &[String]) -> CliResult {
    use r2d2_harness::{sets, Cache, JobSpec, RunOptions};

    match args.first().map(String::as_str) {
        Some("list") => {
            let cache = Cache::open_default();
            let size = r2d2_harness::size_from_env();
            println!(
                "{:<10} {:>6} {:>8}   shares cache with",
                "set", "jobs", "cached"
            );
            for name in sets::SET_NAMES {
                let specs = sets::set(name, size).expect("named set exists");
                let cached = specs.iter().filter(|s| cache.load(s).is_some()).count();
                let shared = match *name {
                    "fig12" | "fig13" | "fig16" => "fig12/fig13/fig16",
                    "fig14" | "fig15" => "fig14/fig15 (subset of fig12)",
                    "sec57" => "subset of fig12",
                    _ => "-",
                };
                println!("{name:<10} {:>6} {cached:>8}   {shared}", specs.len());
            }
            println!(
                "\ncache: {} entries under {}",
                cache.len(),
                cache.dir().display()
            );
            Ok(())
        }
        Some("run") => {
            let mut names: Vec<String> = Vec::new();
            let mut opts = RunOptions::default();
            let mut size = r2d2_harness::size_from_env();
            let mut profile = false;
            let mut threads = 0u32;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--jobs" => {
                        opts.jobs = args.get(i + 1).ok_or("--jobs needs a value")?.parse()?;
                        i += 1;
                    }
                    "--no-cache" => opts.use_cache = false,
                    "--profile" => profile = true,
                    "--threads" => {
                        threads = args.get(i + 1).ok_or("--threads needs a value")?.parse()?;
                        i += 1;
                    }
                    "--size" => {
                        size = match args.get(i + 1).ok_or("--size needs a value")?.as_str() {
                            "small" => r2d2_workloads::Size::Small,
                            "full" => r2d2_workloads::Size::Full,
                            other => return Err(format!("bad size {other:?}").into()),
                        };
                        i += 1;
                    }
                    flag if flag.starts_with("--") => {
                        return Err(format!("unknown option {flag}").into())
                    }
                    name => names.push(name.to_string()),
                }
                i += 1;
            }
            if names.is_empty() {
                return Err(format!(
                    "missing set name; one of: {} | all",
                    sets::SET_NAMES.join(" | ")
                )
                .into());
            }
            if names.iter().any(|n| n == "all") {
                names = sets::SET_NAMES.iter().map(|s| s.to_string()).collect();
            }
            // Collect specs across sets, deduplicating by cache key so
            // overlapping figures don't queue the same job twice.
            let mut specs: Vec<JobSpec> = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for name in &names {
                let set = sets::set(name, size)
                    .ok_or_else(|| format!("unknown set {name:?} (try `r2d2 sweep list`)"))?;
                for mut s in set {
                    s.profile = profile;
                    s.threads = threads;
                    if seen.insert(s.content_hash()) {
                        specs.push(s);
                    }
                }
            }
            println!(
                "running {} unique jobs from: {}",
                specs.len(),
                names.join(", ")
            );
            r2d2_harness::run_jobs(&specs, &opts);
            let cache = Cache::open_default();
            let path = r2d2_harness::default_csv_path();
            let rows = r2d2_harness::export_csv(&cache, &path)?;
            println!("[written {} ({rows} rows)]", path.display());
            Ok(())
        }
        Some("clean") => {
            let cache = Cache::open_default();
            let n = cache.clean()?;
            println!("removed {n} cached results from {}", cache.dir().display());
            Ok(())
        }
        _ => Err("usage: r2d2 sweep <list|run|clean> ...".into()),
    }
}

fn cmd_serve(args: &[String]) -> CliResult {
    use r2d2_serve::{install_signal_handlers, Server, ServerConfig};

    let mut cfg = ServerConfig {
        verbose: true,
        ..ServerConfig::default()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                cfg.addr = args.get(i + 1).ok_or("--addr needs a value")?.clone();
                i += 1;
            }
            "--workers" => {
                cfg.workers = args.get(i + 1).ok_or("--workers needs a value")?.parse()?;
                i += 1;
            }
            "--queue-cap" => {
                cfg.queue_cap = args
                    .get(i + 1)
                    .ok_or("--queue-cap needs a value")?
                    .parse()?;
                i += 1;
            }
            "--timeout" => {
                let secs: u64 = args.get(i + 1).ok_or("--timeout needs a value")?.parse()?;
                cfg.job_timeout = std::time::Duration::from_secs(secs);
                i += 1;
            }
            "--no-cache" => cfg.use_cache = false,
            "--quiet" => cfg.verbose = false,
            other => return Err(format!("unknown option {other}").into()),
        }
        i += 1;
    }
    if cfg.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    install_signal_handlers();
    let server = Server::bind(cfg.clone())?;
    let addr = server.local_addr()?;
    // Parsed by scripts and the CI smoke test to discover a `:0` port pick.
    println!(
        "listening on {addr} ({} workers, queue cap {})",
        cfg.workers, cfg.queue_cap
    );
    println!(
        "endpoints: POST /v1/jobs, POST /v1/jobs/batch, GET /v1/jobs/<id>, \
         DELETE /v1/jobs/<id>, GET /v1/jobs/<id>/progress, GET /v1/healthz, \
         GET /v1/metrics, POST /v1/shutdown"
    );
    server.run()?;
    Ok(())
}

fn cmd_dispatch(args: &[String]) -> CliResult {
    use r2d2_dispatch::{DispatchConfig, Dispatcher};
    use r2d2_serve::install_signal_handlers;

    let mut cfg = DispatchConfig {
        verbose: true,
        ..DispatchConfig::default()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--backends" => {
                let list = args.get(i + 1).ok_or("--backends needs a value")?;
                cfg.backends = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
                i += 1;
            }
            "--addr" => {
                cfg.addr = args.get(i + 1).ok_or("--addr needs a value")?.clone();
                i += 1;
            }
            "--probe-interval-ms" => {
                let ms: u64 = args
                    .get(i + 1)
                    .ok_or("--probe-interval-ms needs a value")?
                    .parse()?;
                cfg.probe_interval = std::time::Duration::from_millis(ms);
                i += 1;
            }
            "--quiet" => cfg.verbose = false,
            other => return Err(format!("unknown option {other}").into()),
        }
        i += 1;
    }
    if cfg.backends.is_empty() {
        return Err("dispatch requires --backends a,b,... (at least one serve node)".into());
    }
    install_signal_handlers();
    let backends = cfg.backends.join(", ");
    let dispatcher = Dispatcher::bind(cfg)?;
    let addr = dispatcher.local_addr()?;
    // Parsed by scripts and the CI smoke test to discover a `:0` port pick.
    println!("listening on {addr} (dispatching to {backends})");
    println!(
        "endpoints: /v1 only — POST /v1/jobs, POST /v1/jobs/batch, GET /v1/jobs/<id>, \
         DELETE /v1/jobs/<id>, GET /v1/jobs/<id>/progress, GET /v1/healthz, \
         GET /v1/metrics, POST /v1/shutdown"
    );
    dispatcher.run()?;
    Ok(())
}

fn cmd_submit(args: &[String]) -> CliResult {
    use r2d2_harness::{JobSpec, ModelSpec};

    // Batch modes delegate to `POST /jobs/batch`.
    match args.first().map(String::as_str) {
        Some("--set") => return cmd_submit_set(&args[1..]),
        Some("--batch") => return cmd_submit_batch(&args[1..]),
        _ => {}
    }

    let workload = args.first().ok_or("missing workload id")?.clone();
    let model: ModelSpec = args
        .get(1)
        .ok_or("missing model (baseline|dac|darsie|darsie-scalar|r2d2|ideals)")?
        .parse()?;
    let mut addr = "127.0.0.1:8787".to_string();
    let mut wait = false;
    let mut size = r2d2_workloads::Size::Small;
    let mut sms: Option<u32> = None;
    let mut threads = 0u32;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                addr = args.get(i + 1).ok_or("--addr needs a value")?.clone();
                i += 1;
            }
            "--wait" => wait = true,
            "--full" => size = r2d2_workloads::Size::Full,
            "--sms" => {
                sms = Some(args.get(i + 1).ok_or("--sms needs a value")?.parse()?);
                i += 1;
            }
            "--threads" => {
                threads = args.get(i + 1).ok_or("--threads needs a value")?.parse()?;
                i += 1;
            }
            other => return Err(format!("unknown option {other}").into()),
        }
        i += 1;
    }

    let mut spec = JobSpec::new(&workload, size, model);
    spec.overrides.num_sms = sms;
    spec.threads = threads;
    // Generous timeout: with --wait the connection stays open while the
    // simulation runs.
    let timeout = std::time::Duration::from_secs(if wait { 3600 } else { 30 });
    let outcome = r2d2_serve::submit(&addr, &spec, wait, timeout)?;
    println!("{}", outcome.body.to_json());
    if outcome.status >= 400 || outcome.job_status() == Some("failed") {
        return Err(format!("submission ended with HTTP {}", outcome.status).into());
    }
    Ok(())
}

/// Parse `--addr HOST:PORT` out of trailing service-command options.
fn parse_addr(args: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    let mut addr = "127.0.0.1:8787".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                addr = args.get(i + 1).ok_or("--addr needs a value")?.clone();
                i += 1;
            }
            other => return Err(format!("unknown option {other}").into()),
        }
        i += 1;
    }
    Ok(addr)
}

fn cmd_submit_set(args: &[String]) -> CliResult {
    let name = args
        .first()
        .ok_or("--set needs a set name (try `r2d2 sweep list`)")?;
    let addr = parse_addr(&args[1..])?;
    let outcome = r2d2_serve::submit_set(&addr, name, std::time::Duration::from_secs(60))?;
    println!("{}", outcome.body.to_json());
    if outcome.status >= 400 {
        return Err(format!("batch submission ended with HTTP {}", outcome.status).into());
    }
    Ok(())
}

fn cmd_submit_batch(args: &[String]) -> CliResult {
    use r2d2_harness::JobSpec;

    let file = args.first().ok_or("--batch needs a JSON file path")?;
    let addr = parse_addr(&args[1..])?;
    let text = std::fs::read_to_string(file)?;
    let parsed = r2d2_harness::json::parse(&text).map_err(|e| format!("{file}: bad JSON: {e}"))?;
    let items = parsed
        .as_arr()
        .ok_or_else(|| format!("{file}: batch file must hold a JSON array of JobSpecs"))?;
    let specs = items
        .iter()
        .enumerate()
        .map(|(i, v)| JobSpec::from_json_request(v).map_err(|e| format!("{file} job {i}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let outcome = r2d2_serve::submit_batch(&addr, &specs, std::time::Duration::from_secs(60))?;
    println!("{}", outcome.body.to_json());
    if outcome.status >= 400 {
        return Err(format!("batch submission ended with HTTP {}", outcome.status).into());
    }
    Ok(())
}

fn cmd_cancel(args: &[String]) -> CliResult {
    let id = args.first().ok_or("missing job id")?;
    let addr = parse_addr(&args[1..])?;
    let outcome = r2d2_serve::cancel(&addr, id, std::time::Duration::from_secs(30))?;
    println!("{}", outcome.body.to_json());
    if outcome.status >= 400 {
        return Err(format!("cancel ended with HTTP {}", outcome.status).into());
    }
    Ok(())
}

fn cmd_watch(args: &[String]) -> CliResult {
    let id = args.first().ok_or("missing job id")?;
    let addr = parse_addr(&args[1..])?;
    // The read timeout bounds each quiet stretch of the stream, not the
    // whole watch; a job parked behind a long queue can be silent a while.
    let status = r2d2_serve::watch(&addr, id, std::time::Duration::from_secs(3600), &mut |v| {
        println!("{}", v.to_json());
    })?;
    if status >= 400 {
        return Err(format!("watch ended with HTTP {status}").into());
    }
    Ok(())
}

fn cmd_workload(args: &[String]) -> CliResult {
    use r2d2_harness::{execute, JobSpec, ModelSpec};

    let name = args
        .first()
        .ok_or("missing workload name (try `r2d2 list`)")?;
    let mut model = ModelSpec::Baseline;
    let mut size = r2d2_workloads::Size::Small;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--model" => {
                model = timed_model(args.get(i + 1).ok_or("--model needs a value")?)?;
                i += 1;
            }
            "--full" => size = r2d2_workloads::Size::Full,
            other => return Err(format!("unknown option {other}").into()),
        }
        i += 1;
    }
    let rec = execute(&JobSpec::new(name, size, model))?;
    println!("workload {name} under {}:\n", model.name());
    print_stats(&rec.stats);
    Ok(())
}

/// Parse a model that runs the timing simulator: `ideals` only counts
/// instructions, so it has no cycles or stall attribution to report.
fn timed_model(name: &str) -> Result<r2d2_harness::ModelSpec, String> {
    match name.parse()? {
        r2d2_harness::ModelSpec::Ideals => {
            Err("model ideals has no timing run (see `r2d2 sweep run fig04`)".into())
        }
        model => Ok(model),
    }
}
