//! Micro-benchmarks of the reproduction's own machinery: analyzer
//! throughput, end-to-end transform, functional and timing simulation rates.
//!
//! Hand-rolled timing loop (median-of-samples) instead of criterion so the
//! workspace builds with zero external dependencies. Not statistically
//! rigorous — it answers "did I make the hot path 2x slower", not "is this
//! 1% faster".

use r2d2_core::analyzer::analyze;
use r2d2_core::transform::transform;
use r2d2_isa::{Kernel, KernelBuilder, Ty};
use r2d2_sim::{functional, Dim3, GlobalMem, GpuConfig, Launch, LoopKind, SimSession, Stats};
use std::sync::Mutex;
use std::time::Instant;

/// Smoke mode (`R2D2_MICRO_SMOKE=1`): shrink sizes and deadlines so CI can
/// run every bench in seconds while still exercising the same code paths.
fn smoke() -> bool {
    std::env::var("R2D2_MICRO_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Collected `(metric, value)` pairs, all higher-is-better, dumped as JSON
/// when `R2D2_BENCH_JSON=<path>` is set. `scripts/check_bench_baseline.py`
/// diffs that dump against the committed `results/bench_baseline.json` to
/// gate throughput regressions in CI.
static METRICS: Mutex<Vec<(String, f64)>> = Mutex::new(Vec::new());

fn record_metric(name: &str, value: f64) {
    METRICS.lock().unwrap().push((name.to_string(), value));
}

fn write_metrics_json(path: &str) {
    use r2d2_harness::json::{int, num, obj, Value};
    let metrics = METRICS.lock().unwrap();
    let fields: Vec<(&str, Value)> = metrics.iter().map(|(k, v)| (k.as_str(), num(*v))).collect();
    // Recorded so the regression gate can tell whether multi-threaded
    // (`*_t8_*`) metrics were measured with real parallelism: on a
    // single-core host they mostly measure barrier overhead and are
    // not comparable against a multi-core baseline (or vice versa).
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = obj(vec![
        ("schema", int(1)),
        ("smoke", Value::Bool(smoke())),
        ("host_parallelism", int(host_parallelism as u64)),
        ("metrics", obj(fields)),
    ]);
    // Cargo runs bench binaries with cwd = the package dir (crates/bench),
    // but callers (CI, update_bench_baseline.sh) pass workspace-relative
    // paths like `target/bench_current.json` — anchor those at the
    // workspace root so the file lands where the gate script looks.
    let mut dest = std::path::PathBuf::from(path);
    if dest.is_relative() {
        let workspace = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        dest = workspace.join(dest);
    }
    if let Some(parent) = dest.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&dest, doc.to_json()).expect("write bench metrics");
    println!("[bench metrics written to {}]", dest.display());
}

fn saxpy_like() -> Kernel {
    let mut b = KernelBuilder::new("saxpy", 3);
    let i = b.global_tid_x();
    let off = b.shl_imm_wide(i, 2);
    let px = b.ld_param(0);
    let py = b.ld_param(1);
    let ax = b.add_wide(px, off);
    let ay = b.add_wide(py, off);
    let x = b.ld_global(Ty::F32, ax, 0);
    let y = b.ld_global(Ty::F32, ay, 0);
    let a = b.ld_param(2);
    let af = b.cvt(Ty::F32, a);
    let t = b.mad_ty(Ty::F32, af, x, y);
    b.st_global(Ty::F32, ay, 0, t);
    b.build()
}

/// Run `f` in batches until ~0.5 s elapses (min 4 samples; ~0.1 s in smoke
/// mode), report the median per-iteration time over the collected batch
/// samples, and return it in seconds.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> f64 {
    // Warmup.
    for _ in 0..3 {
        std::hint::black_box(f());
    }
    let mut samples: Vec<f64> = Vec::new();
    let batch = 4u32;
    let budget_ms = if smoke() { 100 } else { 500 };
    let deadline = Instant::now() + std::time::Duration::from_millis(budget_ms);
    while Instant::now() < deadline || samples.len() < 4 {
        let t0 = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        samples.push(t0.elapsed().as_secs_f64() / f64::from(batch));
        if samples.len() >= 256 {
            break;
        }
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let median = samples[samples.len() / 2];
    let unit = if median >= 1e-3 {
        format!("{:.3} ms", median * 1e3)
    } else {
        format!("{:.1} us", median * 1e6)
    };
    println!(
        "{name:<32} {unit:>12}/iter  ({} samples x {batch})",
        samples.len()
    );
    record_metric(&format!("{name}_iters_per_s"), 1.0 / median);
    median
}

/// DRAM-bound kernel: a serial chain of `rounds` cold loads, each touching
/// its own 128-byte line and feeding (a zero from the zero-initialized
/// buffer) into the next address. With one warp per scheduler, every warp
/// spends ~a full DRAM latency stalled per round — the cycle-skipping sweet
/// spot.
fn dram_bound_kernel(rounds: u32, nthreads: u32) -> Kernel {
    let mut b = KernelBuilder::new("dram_bound", 2);
    let i = b.global_tid_x();
    let p = b.ld_param(0);
    let mut v = b.imm32(0);
    for r in 0..rounds {
        let dep = b.add_ty(Ty::B32, i, v); // serializes on the previous load
        let ri = b.imm32(r as i32);
        let nt = b.imm32(nthreads as i32);
        let j = b.mad_ty(Ty::B32, ri, nt, dep);
        let loff = b.shl_imm_wide(j, 7); // one fresh L1 line per round
        let a = b.add_wide(p, loff);
        v = b.ld_global(Ty::B32, a, 0);
    }
    let q = b.ld_param(1);
    let soff = b.shl_imm_wide(i, 2);
    let sa = b.add_wide(q, soff);
    b.st_global(Ty::B32, sa, 0, v);
    b.build()
}

/// ALU-bound kernel: a long dependent FP32 chain with one store at the end —
/// almost every cycle issues, so cycle skipping has nothing to skip.
fn alu_bound_kernel() -> Kernel {
    let mut b = KernelBuilder::new("alu_bound", 1);
    let i = b.global_tid_x();
    let f = b.cvt(Ty::F32, i);
    let mut acc = f;
    for _ in 0..64 {
        acc = b.mad_ty(Ty::F32, acc, f, f);
    }
    let off = b.shl_imm_wide(i, 2);
    let p = b.ld_param(0);
    let a = b.add_wide(p, off);
    b.st_global(Ty::F32, a, 0, acc);
    b.build()
}

/// One simulator-throughput case: a 1-D launch of `kernel` on `num_sms` SMs.
struct SimCase {
    tag: &'static str,
    kernel: Kernel,
    grid: u32,
    block: u32,
    bufs: Vec<u64>,
    num_sms: u32,
}

/// Measure simulator throughput for one case under one loop kind: median
/// wall seconds per run, printed as simulated cycles and warp instructions
/// per wall-second.
fn sim_throughput(c: &SimCase, kind: LoopKind, threads: u32) -> (f64, Stats) {
    let SimCase {
        tag,
        kernel,
        grid,
        block,
        bufs,
        num_sms,
    } = c;
    let cfg = GpuConfig::default()
        .with_num_sms(*num_sms)
        .with_loop_kind(kind)
        .with_threads(threads);
    let run = || {
        let mut g = GlobalMem::new();
        let params: Vec<u64> = bufs.iter().map(|&b| g.alloc(b)).collect();
        let launch = Launch::new(kernel.clone(), Dim3::d1(*grid), Dim3::d1(*block), params);
        SimSession::new(&cfg).run(&launch, &mut g).unwrap()
    };
    let stats = run();
    let kname = match kind {
        LoopKind::Lockstep => "lockstep",
        LoopKind::EventDriven => "event",
    };
    // threads = 1 keeps the pre-sharding metric names so baselines carry over.
    let bname = if threads == 1 {
        format!("sim_{tag}_{kname}")
    } else {
        format!("sim_{tag}_{kname}_t{threads}")
    };
    let med = bench(&bname, run);
    println!(
        "{:<32} {:>10.1}M sim-cycles/s  {:>8.2}M warp-instrs/s",
        format!("  ({} cycles={})", kname, stats.cycles),
        stats.cycles as f64 / med / 1e6,
        stats.warp_instrs as f64 / med / 1e6,
    );
    record_metric(&format!("{bname}_cycles_per_s"), stats.cycles as f64 / med);
    (med, stats)
}

/// The DRAM-bound vs ALU-bound vs sparse throughput comparison between the
/// two loop kinds (the headline numbers for the event-driven loop).
fn sim_throughput_suite() {
    // DRAM case: occupancy stays fixed at one warp per scheduler (grid 16 x
    // block 64 over 8 SMs); full mode deepens the stall chain instead of
    // widening the machine, which would shift time into functional execution
    // (identical under both loops) and hide the loop overhead being measured.
    let rounds = if smoke() { 4 } else { 16 };
    let (dgrid, dblock) = (16u32, 64u32);
    let dn = u64::from(dgrid * dblock);
    let ascale = if smoke() { 1 } else { 4 };
    let (agrid, ablock) = (16 * ascale, 128u32);
    let an = u64::from(agrid * ablock);
    // Sparse case: fewer blocks than the default 80 SMs, the shape of most
    // figure-sweep launches. Most SMs sit empty and the rest sleep between
    // DRAM wakeups, so the per-SM wakeups skip nearly every SM pass.
    let num_sms = GpuConfig::default().num_sms;
    let (sgrid, sblock) = (num_sms / 4, 64u32);
    let sn = u64::from(sgrid * sblock);
    let cases = [
        // Low occupancy + serial cold misses: long fully-idle stalls.
        SimCase {
            tag: "dram_bound",
            kernel: dram_bound_kernel(rounds, dgrid * dblock),
            grid: dgrid,
            block: dblock,
            bufs: vec![u64::from(rounds) * dn * 128, dn * 4],
            num_sms: 8,
        },
        // Dense dependent ALU work: near-full issue slots, nothing to skip.
        SimCase {
            tag: "alu_bound",
            kernel: alu_bound_kernel(),
            grid: agrid,
            block: ablock,
            bufs: vec![an * 4],
            num_sms: 8,
        },
        SimCase {
            tag: "sparse",
            kernel: dram_bound_kernel(rounds, sgrid * sblock),
            grid: sgrid,
            block: sblock,
            bufs: vec![u64::from(rounds) * sn * 128, sn * 4],
            num_sms,
        },
    ];
    for c in &cases {
        let tag = c.tag;
        let (t_ev, s_ev) = sim_throughput(c, LoopKind::EventDriven, 1);
        let (t_ls, s_ls) = sim_throughput(c, LoopKind::Lockstep, 1);
        assert_eq!(s_ev, s_ls, "{tag}: loop kinds must report identical stats");
        println!("{tag:<32} event-driven speedup: {:.2}x\n", t_ls / t_ev);
        // Sharded run: publish a threads=8 throughput metric and hold the
        // bit-identical guarantee. Speedup over threads=1 tracks the host's
        // core count, so only the rate (not a ratio) is gated.
        let (t_p, s_p) = sim_throughput(c, LoopKind::EventDriven, 8);
        assert_eq!(s_ev, s_p, "{tag}: threads=8 must report identical stats");
        println!("{tag:<32} threads=8 speedup: {:.2}x\n", t_ev / t_p);
    }
}

fn main() {
    let k = saxpy_like();
    bench("analyze_saxpy", || analyze(std::hint::black_box(&k)));
    bench("transform_saxpy", || transform(std::hint::black_box(&k)));

    let n = 32 * 128u64;
    bench("functional_saxpy_4k_threads", || {
        let mut g = GlobalMem::new();
        let x = g.alloc(n * 4);
        let y = g.alloc(n * 4);
        let launch = Launch::new(k.clone(), Dim3::d1(32), Dim3::d1(128), vec![x, y, 3]);
        functional::run(&launch, &mut g, 10_000_000, None).unwrap()
    });
    let cfg = GpuConfig::default().with_num_sms(8);
    bench("timing_saxpy_4k_threads", || {
        let mut g = GlobalMem::new();
        let x = g.alloc(n * 4);
        let y = g.alloc(n * 4);
        let launch = Launch::new(k.clone(), Dim3::d1(32), Dim3::d1(128), vec![x, y, 3]);
        SimSession::new(&cfg).run(&launch, &mut g).unwrap()
    });

    sim_throughput_suite();

    if let Ok(path) = std::env::var("R2D2_BENCH_JSON") {
        if !path.is_empty() {
            write_metrics_json(&path);
        }
    }
}
