//! Cycle-level timing simulation.
//!
//! Models the paper's baseline GPU (Table 1): 80 SMs, 4 GTO warp schedulers
//! per SM issuing one instruction per cycle each, a per-register scoreboard,
//! per-SM L1, shared banked L2, and a bandwidth-limited DRAM. R2D2 kernels
//! additionally get the Sec. 4 microarchitecture: per-warp starting PCs
//! (the Starting PC table), phase gating flags, round-robin scheduling while
//! linear instructions are in flight, and the Sec. 5.4 latency adders.
//!
//! Execution is *execute-at-issue*: functional effects happen when the
//! instruction issues, and the scoreboard delays dependents by the modeled
//! latency. Machine models ([`IssueFilter`]) reclassify instructions at issue
//! (execute / scalar / skip) without ever changing values.
//!
//! Two main-loop implementations share one per-candidate issue engine
//! (`attempt_issue`) and are selected by [`crate::config::LoopKind`]:
//!
//! * `Lockstep` — the reference: every cycle, each scheduler rebuilds and
//!   sorts its candidate list from scratch.
//! * `EventDriven` (default) — persistent per-scheduler orderings (a GTO
//!   priority list in `seq` order, an RR ring pointer) maintained at
//!   dispatch/completion events, recycled scoreboard/smem buffers, and exact
//!   idle-cycle skipping: when a full pass over all SMs neither executes an
//!   instruction nor crosses a phase-gate boundary, `now` jumps straight to
//!   the earliest scoreboard wakeup (or the cycle where the watchdog or
//!   deadlock check would fire, whichever is first).
//!
//! Both produce bit-identical [`Stats`] and global memory; the
//! `loop_equivalence` differential test enforces this across the workload
//! zoo and every machine model. See DESIGN.md "Timing-loop internals" for
//! the exactness argument.
//!
//! The whole machinery is generic over an [`EventSink`] (see `r2d2-trace`):
//! every instrumentation site is guarded by `if S::ENABLED`, so an
//! unobserved [`crate::SimSession`] run (which passes [`r2d2_trace::NullSink`])
//! monomorphizes to the uninstrumented hot loop, while `.sink(...)` with a
//! [`r2d2_trace::Profiler`] records per-SM/per-warp stall attribution and
//! time series. Both loop kinds emit identical event streams — the
//! event-driven loop reports skipped idle spans via `idle_skip`, which the
//! profiler replays from the preceding no-progress cycle (exact, because no
//! SM state can change while nothing issues). See DESIGN.md "Observability".

use crate::cache::Cache;
use crate::config::{GpuConfig, LoopKind};
use crate::exec::{AtomVals, ExecError, MemInfo, OperandVals, Outcome, WarpExec, WarpState};
use crate::filter::{Disposition, IssueCtx, IssueFilter};
use crate::launch::Launch;
use crate::linear::{LinearMeta, LinearStore, Phase};
use crate::mem::GlobalMem;
use crate::stats::Stats;
use r2d2_isa::{AtomOp, Cfg, Dst, Instr, Kernel, MemOffset, MemSpace, Op, Operand, Ty};
use r2d2_trace::{EventSink, MemLevel, StallCause};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod shard;

use shard::run_sharded;

/// Cooperative cancellation flag for a running simulation.
///
/// Cloning is cheap (it wraps an `Arc<AtomicBool>`) and every clone observes
/// the same flag, so a token handed to a [`crate::SimSession`] can be
/// triggered from any thread. The timing loops poll it where the watchdog is
/// evaluated — the head of both single-threaded loops and every epoch
/// boundary of the sharded loop — so a cancelled run stops within one epoch
/// and returns [`SimError::Cancelled`] instead of running to completion.
/// [`crate::functional::run_cancellable`] polls it before each thread block.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-triggered token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Error from a timing simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A warp ran away (functional watchdog).
    Exec(ExecError),
    /// No instruction issued for a long time with work remaining.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
    },
    /// The global cycle watchdog fired.
    Watchdog {
        /// The limit that was exceeded.
        limit: u64,
    },
    /// The kernel cannot be resident on an SM (block too large).
    Unschedulable,
    /// The run's [`CancelToken`] was triggered.
    Cancelled {
        /// Cycle at which the cancellation was observed.
        cycle: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Exec(e) => write!(f, "{e}"),
            SimError::Deadlock { cycle } => write!(f, "no forward progress at cycle {cycle}"),
            SimError::Watchdog { limit } => write!(f, "exceeded {limit} cycles"),
            SimError::Unschedulable => write!(f, "thread block does not fit on an SM"),
            SimError::Cancelled { cycle } => write!(f, "cancelled at cycle {cycle}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> Self {
        SimError::Exec(e)
    }
}

const NO_GATE: usize = usize::MAX;
/// Cap on zero-cost skips consumed per scheduler slot per cycle.
const MAX_SKIPS_PER_PICK: usize = 64;
/// Cycles without an issue before the deadlock detector fires.
const DEADLOCK_WINDOW: u64 = 1_000_000;

/// `TWarp::reg_cause` codes: which unit produced a register's pending value
/// (tracked only when the event sink is enabled; maps a scoreboard block to
/// a [`StallCause`]).
const CAUSE_ALU: u8 = 0;
const CAUSE_LSU: u8 = 1;
const CAUSE_DRAM: u8 = 2;

/// Scoreboard sentinel written by the sharded loop for a value produced by a
/// deferred (L2/DRAM-bound) access: "not ready at any cycle inside the
/// current epoch". The epoch length is chosen so the true readiness time
/// always lands past the epoch boundary, where the drain replaces the
/// sentinel with the exact cycle (see the `shard` module).
const PENDING: u64 = u64::MAX;

struct TWarp {
    w: WarpState,
    reg_ready: Vec<u64>,
    pred_ready: Vec<u64>,
    /// Producer kind per register ([`CAUSE_ALU`]/[`CAUSE_LSU`]/[`CAUSE_DRAM`]);
    /// empty unless the event sink is enabled.
    reg_cause: Vec<u8>,
    slot: usize,
    seq: u64,
    next_gate: usize,
}

struct Slot {
    active: bool,
    first_wave: bool,
    live: u32,
    barrier_wait: u32,
    smem: Vec<u8>,
    bidx_done: bool,
}

struct Sm {
    warps: Vec<Option<TWarp>>,
    slots: Vec<Slot>,
    l1: Cache,
    store: Option<LinearStore>,
    cr_ready: Vec<u64>,
    tr_ready: Vec<u64>,
    br_ready: Vec<u64>,
    coef_done: bool,
    tidx_done: bool,
    tidx_pending: u32,
    owner_assigned: bool,
    gto_last: Vec<Option<usize>>,
    rr_ptr: Vec<usize>,
    gates_open_cycle: Option<u64>,
    next_seq: u64,
    /// Per-scheduler warp indices in `seq` order (the persistent GTO list;
    /// appended at dispatch, pruned at block completion). Entries may point
    /// at done/at-barrier warps — filtered at iteration time.
    lane_seq: Vec<Vec<u32>>,
    /// Recycled `(reg_ready, pred_ready, reg_cause)` buffers from completed
    /// warps.
    free_ready: Vec<(Vec<u64>, Vec<u64>, Vec<u8>)>,
}

/// Compute how many blocks of this launch fit on one SM, honoring the Table 1
/// limits plus the register/shared-memory capacity, and — for R2D2 kernels —
/// the Sec. 4.4 accounting for thread-index, block-index and coefficient
/// registers.
pub fn blocks_per_sm(cfg: &GpuConfig, launch: &Launch, phys_regs: u32) -> u32 {
    let tpb = launch.threads_per_block() as u64;
    let wpb = launch.warps_per_block();
    if wpb == 0 || wpb > cfg.max_warps_per_sm {
        return 0;
    }
    let mut cand = cfg.max_blocks_per_sm.min(cfg.max_warps_per_sm / wpb);
    if launch.kernel.shared_bytes > 0 {
        cand = cand.min((cfg.shared_bytes_per_sm / launch.kernel.shared_bytes as u64) as u32);
    }
    let regs_avail = cfg.regs_per_sm();
    while cand > 0 {
        let gp = phys_regs as u64 * tpb * cand as u64;
        let linear = match &launch.meta {
            Some(m) if m.has_linear() => {
                // Sec. 5.6 accounting: tr are 4-byte per thread slot (shared
                // across blocks), br take 8 bytes per lr per resident block,
                // cr are per-SM scalars.
                m.n_tr as u64 * tpb + 2 * m.n_lr as u64 * cand as u64 + m.n_cr as u64
            }
            _ => 0,
        };
        if gp + linear <= regs_avail {
            return cand;
        }
        cand -= 1;
    }
    0
}

/// An estimate of physical registers per thread: the maximum number of
/// simultaneously live virtual registers (what a register allocator needs).
pub fn phys_regs_estimate(kernel: &Kernel, cfg: &Cfg) -> u32 {
    max_live_regs(kernel, cfg).max(8) as u32
}

/// Maximum number of simultaneously-live GP virtual registers, by iterative
/// backward liveness over the CFG.
#[allow(clippy::needless_range_loop)]
fn max_live_regs(kernel: &Kernel, cfg: &Cfg) -> usize {
    let nregs = kernel.num_regs();
    if nregs == 0 {
        return 0;
    }
    let words = nregs.div_ceil(64);
    let nb = cfg.blocks.len();
    let mut live_out = vec![vec![0u64; words]; nb];
    let mut live_in = vec![vec![0u64; words]; nb];
    let set = |v: &mut [u64], r: usize| v[r / 64] |= 1 << (r % 64);
    let get = |v: &[u64], r: usize| v[r / 64] & (1 << (r % 64)) != 0;
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            let mut out = vec![0u64; words];
            for &s in &cfg.blocks[b].succs {
                for (o, i) in out.iter_mut().zip(live_in[s].iter()) {
                    *o |= *i;
                }
            }
            let mut cur = out.clone();
            for pc in (cfg.blocks[b].start..cfg.blocks[b].end).rev() {
                let ins = &kernel.instrs[pc];
                if let Some(Dst::Reg(r)) = ins.dst {
                    cur[r.0 as usize / 64] &= !(1 << (r.0 as usize % 64));
                }
                for r in ins.src_regs() {
                    set(&mut cur, r.0 as usize);
                }
            }
            if out != live_out[b] || cur != live_in[b] {
                live_out[b] = out;
                live_in[b] = cur;
                changed = true;
            }
        }
    }
    // Max live at any point: re-walk each block.
    let mut best = 0usize;
    for b in 0..nb {
        let mut cur = live_out[b].clone();
        let count = |v: &[u64]| v.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        best = best.max(count(&cur));
        for pc in (cfg.blocks[b].start..cfg.blocks[b].end).rev() {
            let ins = &kernel.instrs[pc];
            if let Some(Dst::Reg(r)) = ins.dst {
                cur[r.0 as usize / 64] &= !(1 << (r.0 as usize % 64));
            }
            for r in ins.src_regs() {
                if !get(&cur, r.0 as usize) {
                    set(&mut cur, r.0 as usize);
                }
            }
            best = best.max(count(&cur));
        }
    }
    best
}

fn base_latency(cfg: &GpuConfig, instr: &Instr) -> u64 {
    match instr.op {
        Op::Sfu(_) => cfg.lat.sfu,
        Op::Div | Op::Rem if instr.ty.is_int() => cfg.lat.sfu,
        _ => match instr.ty {
            Ty::F64 => cfg.lat.fp64,
            Ty::F32 => cfg.lat.fp32,
            _ => cfg.lat.int_alu,
        },
    }
}

/// The memory side every SM shares: the banked L2 and the DRAM service-slot
/// accounting (sub-cycle units). One owned object instead of loose `&mut
/// Cache` / `&mut u64` borrows threaded through the loop — the single-threaded
/// path owns it inside [`DirectMem`], the sharded path keeps it on the
/// coordinator and feeds it deferred events at epoch drains.
pub(crate) struct MemSide {
    l2: Cache,
    dram_busy_u: u64,
}

/// Which sequential accounting path an L2-bound line takes in
/// [`MemSide::l2_line`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L2Kind {
    Load,
    Store,
    Atomic,
}

impl MemSide {
    fn new(cfg: &GpuConfig) -> Self {
        MemSide {
            l2: Cache::new(cfg.l2),
            dram_busy_u: 0,
        }
    }

    /// Bandwidth-limited DRAM: `dram_txns_per_cycle` service slots per cycle,
    /// tracked in sub-cycle units. Returns queueing delay in cycles.
    fn dram_queue(&mut self, cfg: &GpuConfig, now: u64) -> u64 {
        let rate = cfg.dram_txns_per_cycle as u64;
        let now_u = now * rate;
        let slot = self.dram_busy_u.max(now_u);
        self.dram_busy_u = slot + 1;
        (slot - now_u) / rate
    }

    /// Account one L2-bound line access at cycle `now`: L2 tag access, DRAM
    /// queueing on a miss, stats, and sink events. Returns `(latency
    /// contribution, served by DRAM)`. The single source of truth shared by
    /// the direct path and the sharded epoch drain — the branch structure
    /// mirrors the original `mem_latency` exactly.
    fn l2_line<S: EventSink>(
        &mut self,
        cfg: &GpuConfig,
        now: u64,
        line: u64,
        kind: L2Kind,
        stats: &mut Stats,
        sink: &mut S,
    ) -> (u64, bool) {
        stats.events.l2_accesses += 1;
        let hit = self.l2.access(line);
        if hit {
            stats.l2_hits += 1;
            if S::ENABLED {
                sink.mem_access(MemLevel::L2, true);
            }
        } else {
            stats.l2_misses += 1;
            stats.dram_txns += 1;
            stats.events.dram_txns += 1;
            if S::ENABLED {
                sink.mem_access(MemLevel::L2, false);
                sink.mem_access(MemLevel::Dram, true);
            }
        }
        match kind {
            // Atomics are processed at the L2.
            L2Kind::Atomic => {
                if hit {
                    (cfg.lat.atomic, false)
                } else {
                    (self.dram_queue(cfg, now) + cfg.lat.atomic, true)
                }
            }
            // Write-through, no-allocate at L1; allocate at L2. Stores don't
            // produce a value, so they contribute no latency either way.
            L2Kind::Store => {
                if !hit {
                    self.dram_queue(cfg, now);
                }
                (0, false)
            }
            L2Kind::Load => {
                if hit {
                    (cfg.lat.l2_hit, false)
                } else {
                    (self.dram_queue(cfg, now) + cfg.lat.dram, true)
                }
            }
        }
    }
}

/// One deferred L2/DRAM-bound access, queued by a shard at issue and resolved
/// by the epoch drain in deterministic `(cycle, sm, program order)` order.
pub(crate) struct MemEvent {
    cycle: u64,
    /// Global SM id (drain sort key after `cycle`).
    sm: u32,
    /// Warp index on that SM plus its dispatch sequence number: the drain
    /// skips warp-local writebacks when the slot has been recycled.
    wi: u32,
    seq: u64,
    /// L2-bound line ids, first-touch order (empty only for skipped atomics,
    /// which keep their functional RMW but charge nothing).
    lines: Vec<u64>,
    /// Latency already resolved in-shard (worst L1 hit among lines that never
    /// reached the L2; 0 for stores and atomics).
    eager_worst: u64,
    /// `(n_lines - 1)` LSU serialization plus the R2D2 latency adders.
    extra: u64,
    kind: EvKind,
    /// Scoreboard destination holding [`PENDING`] (None for stores and
    /// skipped instructions).
    dst: Option<Dst>,
    /// `tr_ready` value the write replaced, for the max-merge writeback of a
    /// `%tr` destination.
    prev_tr: u64,
}

enum EvKind {
    Load,
    Store,
    /// A deferred global atomic: the read-modify-write itself was suppressed
    /// at issue and is applied at the drain.
    Atomic(Box<AtomApply>),
}

/// Everything needed to apply a deferred atomic's functional effects.
struct AtomApply {
    aop: AtomOp,
    ty: Ty,
    mask: u32,
    addrs: [u64; crate::exec::WARP_SIZE],
    vals: AtomVals,
    /// Where each lane's old value lands (applied even when a filter skipped
    /// the instruction — functional effects are unconditional).
    value_dst: Option<Dst>,
}

/// A buffered stall event whose winning cause depends on scoreboard entries
/// that were still [`PENDING`] when the warp was examined; the drain
/// re-derives the cause once those entries resolve and patches the shard's
/// event buffer in place.
pub(crate) struct StallFix {
    cycle: u64,
    sm: u32,
    /// Index of the `stall` event in the shard's [`r2d2_trace::ShardBuffer`].
    buf_idx: usize,
    /// `(readiness, cause, pending key)` per scoreboard entry the blocked
    /// instruction waits on, in `deps_block_cause` walk order.
    entries: Vec<(u64, StallCause, Pend)>,
}

/// Identifies which SM-shared scoreboard array resolves a pending entry.
#[derive(Debug, Clone, Copy)]
enum Pend {
    /// The captured readiness time was already exact.
    No,
    Cr(u16),
    Tr(u16),
    Br(usize),
}

/// One entry of a shard's deferred-work queue. Queue position is intra-shard
/// program order; the drain's stable sort by `(cycle, sm)` therefore
/// reconstructs the exact order the sequential loop would have touched the
/// shared memory side in.
pub(crate) enum DrainItem {
    Mem(MemEvent),
    Fix(StallFix),
}

impl DrainItem {
    fn key(&self) -> (u64, u32) {
        match self {
            DrainItem::Mem(e) => (e.cycle, e.sm),
            DrainItem::Fix(f) => (f.cycle, f.sm),
        }
    }
}

/// How the issue engine reaches global memory and the shared L2/DRAM side.
/// The single-threaded loops resolve everything at issue ([`DirectMem`]); the
/// sharded loop executes global loads/stores functionally under a lock but
/// defers all L2/DRAM timing (and atomics entirely) into a queue drained at
/// epoch boundaries (`shard::ShardMem`).
pub(crate) trait MemBackend {
    /// `true` when L2-bound timing resolves at the epoch drain.
    const DEFERRED: bool;

    /// Run `f` with global memory. Deferred backends take the shared lock
    /// only when `needs_global` and hand out an empty arena otherwise, so a
    /// mis-gated access fails loudly instead of racing.
    fn with_gmem<R>(&mut self, needs_global: bool, f: impl FnOnce(&mut GlobalMem) -> R) -> R;

    /// The shared memory side (direct backends only).
    fn side(&mut self) -> &mut MemSide;

    /// Queue a deferred item (deferred backends only).
    fn defer(&mut self, item: DrainItem);
}

/// The single-threaded backend: exclusive access to everything.
pub(crate) struct DirectMem<'a> {
    side: MemSide,
    gmem: &'a mut GlobalMem,
}

impl MemBackend for DirectMem<'_> {
    const DEFERRED: bool = false;

    fn with_gmem<R>(&mut self, _needs_global: bool, f: impl FnOnce(&mut GlobalMem) -> R) -> R {
        f(self.gmem)
    }

    fn side(&mut self) -> &mut MemSide {
        &mut self.side
    }

    fn defer(&mut self, _item: DrainItem) {
        unreachable!("direct backend never defers")
    }
}

/// Resolution of one warp memory access at issue time.
enum MemRes {
    /// Fully resolved: `(latency, reg-cause code)`.
    Now(u64, u8),
    /// At least one line is L2-bound; timing completes at the epoch drain.
    Defer {
        lines: Vec<u64>,
        eager_worst: u64,
        extra_n: u64,
    },
}

/// Memory-access timing at issue. On the direct path this resolves every line
/// immediately, preserving the original per-line L1→L2→DRAM interleaving
/// byte for byte. On the deferred path only the SM-private L1 is probed
/// eagerly; anything touching the shared L2/DRAM is returned as
/// [`MemRes::Defer`] for the epoch drain.
fn mem_latency<S: EventSink, M: MemBackend>(
    cfg: &GpuConfig,
    mi: &MemInfo,
    l1: &mut Cache,
    mem: &mut M,
    now: u64,
    stats: &mut Stats,
    sink: &mut S,
) -> MemRes {
    match mi.space {
        MemSpace::Shared => {
            stats.shared_txns += 1;
            stats.events.shared_accesses += 1;
            if S::ENABLED {
                sink.mem_access(MemLevel::Shared, true);
            }
            MemRes::Now(cfg.lat.shared, CAUSE_LSU)
        }
        MemSpace::Global => {
            let lines = mi.lines(cfg.l1.line);
            let n = lines.len() as u64;
            if M::DEFERRED {
                if mi.atomic || mi.write {
                    // Atomics and stores never touch the L1.
                    return MemRes::Defer {
                        lines: lines.to_vec(),
                        eager_worst: 0,
                        extra_n: n.saturating_sub(1),
                    };
                }
                let mut l2_lines = Vec::new();
                let mut eager_worst = 0u64;
                for &line in lines.iter() {
                    stats.events.l1_accesses += 1;
                    if l1.access(line) {
                        stats.l1_hits += 1;
                        if S::ENABLED {
                            sink.mem_access(MemLevel::L1, true);
                        }
                        eager_worst = eager_worst.max(cfg.lat.l1_hit);
                    } else {
                        stats.l1_misses += 1;
                        if S::ENABLED {
                            sink.mem_access(MemLevel::L1, false);
                        }
                        l2_lines.push(line);
                    }
                }
                if l2_lines.is_empty() {
                    // All lines hit the private L1: fully resolved in-shard.
                    return MemRes::Now(eager_worst + n.saturating_sub(1), CAUSE_LSU);
                }
                return MemRes::Defer {
                    lines: l2_lines,
                    eager_worst,
                    extra_n: n.saturating_sub(1),
                };
            }
            let mut worst = 0u64;
            let mut dram_served = false;
            for &line in lines.iter() {
                let (lat, served) = if mi.atomic {
                    mem.side()
                        .l2_line(cfg, now, line, L2Kind::Atomic, stats, sink)
                } else if mi.write {
                    mem.side()
                        .l2_line(cfg, now, line, L2Kind::Store, stats, sink)
                } else {
                    stats.events.l1_accesses += 1;
                    if l1.access(line) {
                        stats.l1_hits += 1;
                        if S::ENABLED {
                            sink.mem_access(MemLevel::L1, true);
                        }
                        (cfg.lat.l1_hit, false)
                    } else {
                        stats.l1_misses += 1;
                        if S::ENABLED {
                            sink.mem_access(MemLevel::L1, false);
                        }
                        mem.side()
                            .l2_line(cfg, now, line, L2Kind::Load, stats, sink)
                    }
                };
                worst = worst.max(lat);
                dram_served |= served;
            }
            let cause = if dram_served { CAUSE_DRAM } else { CAUSE_LSU };
            // The LSU serializes transactions of one warp access.
            MemRes::Now(worst + n.saturating_sub(1), cause)
        }
    }
}

enum Gate {
    Ready(usize),
    Blocked,
    Done,
}

/// Resolve the warp's next PC through the R2D2 phase gates. Sets `crossed`
/// when a gate boundary is crossed — crossings mutate SM-wide state
/// (`coef_done`/`tidx_done`/`tidx_pending`/`bidx_done`) that other warps
/// observe, so the event-driven loop must treat them as forward progress.
#[allow(clippy::too_many_arguments)]
fn gate_and_pc(
    tw: &mut TWarp,
    meta: Option<&LinearMeta>,
    coef_done: &mut bool,
    tidx_done: &mut bool,
    tidx_pending: &mut u32,
    slot_bidx_done: &mut bool,
    crossed: &mut bool,
) -> Gate {
    loop {
        let Some((pc, _)) = tw.w.sync_top() else {
            return Gate::Done;
        };
        let Some(m) = meta else {
            return Gate::Ready(pc);
        };
        if tw.next_gate != NO_GATE && pc >= tw.next_gate {
            let boundary = tw.next_gate;
            *crossed = true;
            if boundary == m.tidx_start {
                *coef_done = true;
                tw.next_gate = m.bidx_start;
            } else if boundary == m.bidx_start {
                *tidx_pending = tidx_pending.saturating_sub(1);
                if *tidx_pending == 0 {
                    *tidx_done = true;
                }
                if tw.w.warp_in_block == 0 {
                    tw.next_gate = m.main_start;
                } else {
                    // Non-first warps skip the block-index block.
                    if let Some(top) = tw.w.stack.last_mut() {
                        top.pc = m.main_start;
                    }
                    tw.next_gate = NO_GATE;
                }
            } else if boundary == m.main_start {
                *slot_bidx_done = true;
                tw.next_gate = NO_GATE;
            } else {
                tw.next_gate = NO_GATE;
            }
            continue;
        }
        // Entry gating at region starts.
        if pc == m.tidx_start && m.tidx_start != m.bidx_start && !*coef_done {
            return Gate::Blocked;
        }
        if pc == m.bidx_start && m.bidx_start != m.main_start && !*coef_done {
            return Gate::Blocked;
        }
        if pc == m.main_start && !(*tidx_done && *slot_bidx_done) {
            return Gate::Blocked;
        }
        return Gate::Ready(pc);
    }
}

/// Per-SM readiness of the R2D2 register classes (a scoreboard over `%cr`,
/// `%tr` and `%br`, shared across the SM's warps like the registers
/// themselves).
struct LinearReadiness<'a> {
    cr: &'a [u64],
    tr: &'a [u64],
    br_slot: u64,
    lr_tr: &'a [Option<u16>; crate::linear::MAX_LR],
}

impl LinearReadiness<'_> {
    /// Cycle at which the operand's scoreboard entry clears (0 = ready).
    fn operand_time(&self, o: &Operand) -> u64 {
        match o {
            Operand::Cr(k) => self.cr.get(*k as usize).copied().unwrap_or(0),
            Operand::Tr(k) => self.tr.get(*k as usize).copied().unwrap_or(0),
            Operand::Br(_) => self.br_slot,
            Operand::Lr(k) => {
                let t = match self.lr_tr[*k as usize] {
                    Some(t) => self.tr.get(t as usize).copied().unwrap_or(0),
                    None => 0,
                };
                t.max(self.br_slot)
            }
            _ => 0,
        }
    }
}

/// Earliest cycle at which the warp's next instruction can issue: the max
/// readiness time over every scoreboard entry it waits on (guard, sources,
/// memory base and offset, destination). The instruction is ready at `now`
/// exactly when this is `<= now`, and it stays blocked until then —
/// scoreboard entries only move forward when an instruction issues, which
/// counts as progress — so the event-driven loop folds a blocked warp's
/// value into its wakeup minimum.
fn deps_wake(tw: &TWarp, instr: &Instr, lin: Option<&LinearReadiness<'_>>) -> u64 {
    let mut t = 0u64;
    if let Some((p, _)) = instr.guard {
        t = t.max(tw.pred_ready[p.0 as usize]);
    }
    for s in &instr.srcs {
        match s {
            Operand::Reg(r) => t = t.max(tw.reg_ready[r.0 as usize]),
            Operand::Pred(p) => t = t.max(tw.pred_ready[p.0 as usize]),
            o if o.is_r2d2_class() => {
                if let Some(l) = lin {
                    t = t.max(l.operand_time(o));
                }
            }
            _ => {}
        }
    }
    if let Some(m) = instr.mem {
        match m.base {
            Operand::Reg(r) => t = t.max(tw.reg_ready[r.0 as usize]),
            o if o.is_r2d2_class() => {
                if let Some(l) = lin {
                    t = t.max(l.operand_time(&o));
                }
            }
            _ => {}
        }
        if let MemOffset::Cr(k) | MemOffset::CrImm(k, _) = m.offset {
            if let Some(l) = lin {
                t = t.max(l.operand_time(&Operand::Cr(k)));
            }
        }
    }
    match instr.dst {
        Some(Dst::Reg(r)) => t = t.max(tw.reg_ready[r.0 as usize]),
        Some(Dst::Pred(p)) => t = t.max(tw.pred_ready[p.0 as usize]),
        Some(Dst::Cr(k)) => {
            if let Some(l) = lin {
                t = t.max(l.cr.get(k as usize).copied().unwrap_or(0));
            }
        }
        Some(Dst::Tr(k)) => {
            if let Some(l) = lin {
                t = t.max(l.tr.get(k as usize).copied().unwrap_or(0));
            }
        }
        Some(Dst::Br(_)) => {
            if let Some(l) = lin {
                t = t.max(l.br_slot);
            }
        }
        None => {}
    }
    t
}

/// Which stall category to charge when [`deps_wake`] is in the future: the
/// category of the operand with the greatest readiness time — the entry it
/// waits for, with ties broken by walk order (first maximal entry wins, so
/// the answer is deterministic and identical across both loop kinds). R2D2
/// register classes charge the operand collector; GP registers charge the
/// unit that produced the pending value (`TWarp::reg_cause`); predicates are
/// always ALU-produced.
fn deps_block_cause(tw: &TWarp, instr: &Instr, lin: Option<&LinearReadiness<'_>>) -> StallCause {
    let mut best_t = 0u64;
    let mut best = StallCause::Scoreboard;
    let reg_cause = |r: usize| match tw.reg_cause.get(r).copied().unwrap_or(CAUSE_ALU) {
        CAUSE_LSU => StallCause::LsuMshr,
        CAUSE_DRAM => StallCause::Dram,
        _ => StallCause::Scoreboard,
    };
    let mut upd = |t: u64, c: StallCause| {
        if t > best_t {
            best_t = t;
            best = c;
        }
    };
    if let Some((p, _)) = instr.guard {
        upd(tw.pred_ready[p.0 as usize], StallCause::Scoreboard);
    }
    for s in &instr.srcs {
        match s {
            Operand::Reg(r) => upd(tw.reg_ready[r.0 as usize], reg_cause(r.0 as usize)),
            Operand::Pred(p) => upd(tw.pred_ready[p.0 as usize], StallCause::Scoreboard),
            o if o.is_r2d2_class() => {
                if let Some(l) = lin {
                    upd(l.operand_time(o), StallCause::OperandCollector);
                }
            }
            _ => {}
        }
    }
    if let Some(m) = instr.mem {
        match m.base {
            Operand::Reg(r) => upd(tw.reg_ready[r.0 as usize], reg_cause(r.0 as usize)),
            o if o.is_r2d2_class() => {
                if let Some(l) = lin {
                    upd(l.operand_time(&o), StallCause::OperandCollector);
                }
            }
            _ => {}
        }
        if let MemOffset::Cr(k) | MemOffset::CrImm(k, _) = m.offset {
            if let Some(l) = lin {
                upd(
                    l.operand_time(&Operand::Cr(k)),
                    StallCause::OperandCollector,
                );
            }
        }
    }
    match instr.dst {
        Some(Dst::Reg(r)) => upd(tw.reg_ready[r.0 as usize], reg_cause(r.0 as usize)),
        Some(Dst::Pred(p)) => upd(tw.pred_ready[p.0 as usize], StallCause::Scoreboard),
        Some(Dst::Cr(k)) => {
            if let Some(l) = lin {
                upd(
                    l.cr.get(k as usize).copied().unwrap_or(0),
                    StallCause::OperandCollector,
                );
            }
        }
        Some(Dst::Tr(k)) => {
            if let Some(l) = lin {
                upd(
                    l.tr.get(k as usize).copied().unwrap_or(0),
                    StallCause::OperandCollector,
                );
            }
        }
        Some(Dst::Br(_)) => {
            if let Some(l) = lin {
                upd(l.br_slot, StallCause::OperandCollector);
            }
        }
        None => {}
    }
    best
}

/// `true` when the instruction reads any R2D2 register class (costs the
/// physical-register-ID computation of Sec. 4.2).
fn reads_r2d2_class(instr: &Instr) -> bool {
    instr.srcs.iter().any(|s| s.is_r2d2_class())
        || matches!(
            instr.mem,
            Some(m) if m.base.is_r2d2_class()
                || matches!(m.offset, MemOffset::Cr(_) | MemOffset::CrImm(..))
        )
}

/// Count register-file source reads for energy: each GP/Tr/Br/Cr/Lr source is
/// one access; an `%lr` costs an extra (scalar) access because it reads both
/// the tr and br halves (Sec. 4.3).
fn rf_reads_of(instr: &Instr) -> (u64, u64) {
    let mut vec_reads = 0u64;
    let mut scalar_reads = 0u64;
    let mut count = |o: &Operand| match o {
        Operand::Reg(_) | Operand::Tr(_) => vec_reads += 1,
        Operand::Lr(_) => {
            vec_reads += 1;
            scalar_reads += 1;
        }
        Operand::Br(_) | Operand::Cr(_) => scalar_reads += 1,
        _ => {}
    };
    for s in &instr.srcs {
        count(s);
    }
    if let Some(m) = instr.mem {
        count(&m.base);
        if let MemOffset::Cr(_) | MemOffset::CrImm(..) = m.offset {
            scalar_reads += 1;
        }
    }
    (vec_reads, scalar_reads)
}

/// Launch-wide immutable context threaded through the loop machinery.
struct LaunchCtx<'a> {
    cfg: &'a GpuConfig,
    kernel: &'a Kernel,
    cfgr: &'a Cfg,
    meta: Option<&'a LinearMeta>,
    launch: &'a Launch,
    tpb: u32,
    wpb: usize,
    nregs: usize,
    npreds: usize,
    total_blocks: u64,
    nsched: usize,
    wants_vals: bool,
    cancel: Option<&'a CancelToken>,
}

impl LaunchCtx<'_> {
    /// Whether the run's cancel token (if any) has been triggered.
    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }
}

/// Full mutable simulation state of the single-threaded loops.
struct Machine<'a, S: EventSink> {
    sms: Vec<Sm>,
    stats: Stats,
    mem: DirectMem<'a>,
    filter: &'a mut dyn IssueFilter,
    scratch: OperandVals,
    remaining: u64,
    /// Next block each SM will take (indexed by global SM id): block `b`
    /// statically belongs to SM `b % num_sms`, so refill is deterministic
    /// and identical whether SMs are simulated together or in shards.
    sm_next: Vec<u64>,
    last_issue: u64,
    sink: &'a mut S,
}

/// The non-SM slice of the simulation state, split-borrowed so an `&mut Sm`
/// can be held alongside it during a scheduler pass. Shared between the
/// single-threaded loops (`M = DirectMem`) and each shard of the parallel
/// loop (`M = shard::ShardMem`).
struct Shared<'a, S: EventSink, M: MemBackend> {
    stats: &'a mut Stats,
    mem: &'a mut M,
    filter: &'a mut dyn IssueFilter,
    scratch: &'a mut OperandVals,
    remaining: &'a mut u64,
    sm_next: &'a mut [u64],
    last_issue: &'a mut u64,
    sink: &'a mut S,
}

impl<'a, S: EventSink> Machine<'a, S> {
    /// Split-borrow SM `sm_i` alongside the rest of the machine state.
    fn split(&mut self, sm_i: usize) -> (&mut Sm, Shared<'_, S, DirectMem<'a>>) {
        let Machine {
            sms,
            stats,
            mem,
            filter,
            scratch,
            remaining,
            sm_next,
            last_issue,
            sink,
        } = self;
        (
            &mut sms[sm_i],
            Shared {
                stats,
                mem,
                filter: &mut **filter,
                scratch,
                remaining,
                sm_next: sm_next.as_mut_slice(),
                last_issue,
                sink: &mut **sink,
            },
        )
    }
}

/// Wakeup accounting of one SM pass of the event-driven loop (the sharded
/// loop folds its SMs' passes into one per shard).
struct EvAcc {
    /// Earliest future cycle at which any blocked dependency clears
    /// (`u64::MAX` = no finite wakeup exists).
    wake: u64,
    /// Whether this pass executed an instruction or crossed a gate boundary.
    progress: bool,
}

impl EvAcc {
    fn new() -> Self {
        EvAcc {
            wake: u64::MAX,
            progress: false,
        }
    }
}

/// What a scheduler learned from examining one candidate warp.
enum Attempt {
    /// The scheduler's issue slot was consumed (issue or exhausted skip
    /// chain); move on to the next scheduler.
    Used,
    /// The candidate could not issue; try the next candidate.
    Next,
}

fn is_candidate(warps: &[Option<TWarp>], wi: usize) -> bool {
    warps[wi]
        .as_ref()
        .is_some_and(|t| !t.w.done && !t.w.at_barrier)
}

/// Dispatch block `blk` into `(sm, slot_i)`, recycling scoreboard buffers
/// from previously completed warps and the slot's shared-memory buffer.
fn dispatch_block<S: EventSink>(
    ctx: &LaunchCtx<'_>,
    sm: &mut Sm,
    sm_gi: u32,
    slot_i: usize,
    blk: u64,
    sink: &mut S,
) {
    let meta = ctx.meta;
    let ctaid = ctx.launch.grid.unflatten(blk);
    let slot = &mut sm.slots[slot_i];
    slot.active = true;
    slot.live = ctx.wpb as u32;
    slot.barrier_wait = 0;
    slot.smem.clear();
    slot.smem.resize(ctx.launch.kernel.shared_bytes as usize, 0);
    slot.bidx_done = meta.is_none();
    let owner = meta.is_some() && !sm.owner_assigned;
    if owner {
        sm.owner_assigned = true;
        sm.tidx_pending = ctx.wpb as u32;
    }
    for wib in 0..ctx.wpb {
        let (start, gate) = match meta {
            None => (0, NO_GATE),
            Some(m) => {
                if owner {
                    if wib == 0 {
                        (m.coef_start, m.tidx_start)
                    } else {
                        (m.tidx_start, m.bidx_start)
                    }
                } else if wib == 0 {
                    (m.bidx_start, m.main_start)
                } else {
                    (m.main_start, NO_GATE)
                }
            }
        };
        let w = WarpState::new(
            ctx.nregs, ctx.npreds, blk, ctaid, wib as u32, ctx.tpb, start,
        );
        let (mut reg_ready, mut pred_ready, mut reg_cause) =
            sm.free_ready.pop().unwrap_or_default();
        reg_ready.clear();
        reg_ready.resize(ctx.nregs, 0);
        pred_ready.clear();
        pred_ready.resize(ctx.npreds, 0);
        reg_cause.clear();
        if S::ENABLED {
            reg_cause.resize(ctx.nregs, CAUSE_ALU);
        }
        let wi = slot_i * ctx.wpb + wib;
        sm.warps[wi] = Some(TWarp {
            w,
            reg_ready,
            pred_ready,
            reg_cause,
            slot: slot_i,
            seq: sm.next_seq,
            next_gate: gate,
        });
        sm.next_seq += 1;
        // `seq` is monotonic, so appending keeps the lane list seq-sorted.
        sm.lane_seq[wi % ctx.nsched].push(wi as u32);
    }
    if S::ENABLED {
        sink.warp_delta(sm_gi, ctx.wpb as i32);
    }
}

/// Capture the `deps_block_cause` walk as explicit `(time, cause, pending
/// key)` entries so the epoch drain can re-derive the winning cause after
/// [`PENDING`] scoreboard entries resolve. Only SM-shared `%cr`/`%tr`/`%br`
/// entries can be pending at examination time under the sink-mode epoch
/// length of 1 (a warp's own registers resolve at the previous drain), so
/// GP registers and predicates always capture exact times with [`Pend::No`].
fn deps_block_entries(
    tw: &TWarp,
    instr: &Instr,
    lin: Option<&LinearReadiness<'_>>,
    slot: usize,
) -> Vec<(u64, StallCause, Pend)> {
    let mut out = Vec::new();
    let reg_cause = |r: usize| match tw.reg_cause.get(r).copied().unwrap_or(CAUSE_ALU) {
        CAUSE_LSU => StallCause::LsuMshr,
        CAUSE_DRAM => StallCause::Dram,
        _ => StallCause::Scoreboard,
    };
    let lin_entry =
        |l: &LinearReadiness<'_>, o: &Operand, out: &mut Vec<(u64, StallCause, Pend)>| {
            let oc = StallCause::OperandCollector;
            match o {
                Operand::Cr(k) => {
                    let t = l.cr.get(*k as usize).copied().unwrap_or(0);
                    let p = if t == PENDING { Pend::Cr(*k) } else { Pend::No };
                    out.push((t, oc, p));
                }
                Operand::Tr(k) => {
                    let t = l.tr.get(*k as usize).copied().unwrap_or(0);
                    let p = if t == PENDING { Pend::Tr(*k) } else { Pend::No };
                    out.push((t, oc, p));
                }
                Operand::Br(_) => {
                    let t = l.br_slot;
                    let p = if t == PENDING {
                        Pend::Br(slot)
                    } else {
                        Pend::No
                    };
                    out.push((t, oc, p));
                }
                // `%lr` reads both halves; `deps_block_cause` takes their max
                // under one cause, so two same-cause entries are equivalent.
                Operand::Lr(k) => {
                    match l.lr_tr[*k as usize] {
                        Some(t) => {
                            let tt = l.tr.get(t as usize).copied().unwrap_or(0);
                            let p = if tt == PENDING { Pend::Tr(t) } else { Pend::No };
                            out.push((tt, oc, p));
                        }
                        None => out.push((0, oc, Pend::No)),
                    }
                    let t = l.br_slot;
                    let p = if t == PENDING {
                        Pend::Br(slot)
                    } else {
                        Pend::No
                    };
                    out.push((t, oc, p));
                }
                _ => {}
            }
        };
    if let Some((p, _)) = instr.guard {
        out.push((
            tw.pred_ready[p.0 as usize],
            StallCause::Scoreboard,
            Pend::No,
        ));
    }
    for s in &instr.srcs {
        match s {
            Operand::Reg(r) => out.push((
                tw.reg_ready[r.0 as usize],
                reg_cause(r.0 as usize),
                Pend::No,
            )),
            Operand::Pred(p) => out.push((
                tw.pred_ready[p.0 as usize],
                StallCause::Scoreboard,
                Pend::No,
            )),
            o if o.is_r2d2_class() => {
                if let Some(l) = lin {
                    lin_entry(l, o, &mut out);
                }
            }
            _ => {}
        }
    }
    if let Some(m) = instr.mem {
        match m.base {
            Operand::Reg(r) => out.push((
                tw.reg_ready[r.0 as usize],
                reg_cause(r.0 as usize),
                Pend::No,
            )),
            o if o.is_r2d2_class() => {
                if let Some(l) = lin {
                    lin_entry(l, &o, &mut out);
                }
            }
            _ => {}
        }
        if let MemOffset::Cr(k) | MemOffset::CrImm(k, _) = m.offset {
            if let Some(l) = lin {
                lin_entry(l, &Operand::Cr(k), &mut out);
            }
        }
    }
    match instr.dst {
        Some(Dst::Reg(r)) => out.push((
            tw.reg_ready[r.0 as usize],
            reg_cause(r.0 as usize),
            Pend::No,
        )),
        Some(Dst::Pred(p)) => out.push((
            tw.pred_ready[p.0 as usize],
            StallCause::Scoreboard,
            Pend::No,
        )),
        Some(Dst::Cr(k)) => {
            if let Some(l) = lin {
                lin_entry(l, &Operand::Cr(k), &mut out);
            }
        }
        Some(Dst::Tr(k)) => {
            if let Some(l) = lin {
                lin_entry(l, &Operand::Tr(k), &mut out);
            }
        }
        Some(Dst::Br(b)) => {
            if let Some(l) = lin {
                lin_entry(l, &Operand::Br(b), &mut out);
            }
        }
        None => {}
    }
    out
}

/// Examine candidate warp `wi` on scheduler `sched`: gate resolution, the
/// scoreboard check, functional execute, machine-model classification, skip
/// chains, charging, and outcome handling. This is the single issue engine
/// shared by both loop implementations — their only difference is the order
/// in which they present candidates and how they advance `now`.
#[allow(clippy::too_many_arguments)]
fn attempt_issue<S: EventSink, M: MemBackend>(
    ctx: &LaunchCtx<'_>,
    sm: &mut Sm,
    sh: &mut Shared<'_, S, M>,
    sm_gi: u32,
    sched: usize,
    wi: usize,
    now: u64,
    linear_mode: bool,
    issued_this_cycle: &mut u32,
    ev: &mut EvAcc,
) -> Result<Attempt, SimError> {
    let kernel = ctx.kernel;
    let meta = ctx.meta;
    let mut skips = 0usize;
    loop {
        // --- gate / pc ---
        let (pc, linear_phase, phase) = {
            let (warps, slots) = (&mut sm.warps, &mut sm.slots);
            let tw = warps[wi].as_mut().unwrap();
            let mut slot_bidx = slots[tw.slot].bidx_done;
            let mut crossed = false;
            let g = gate_and_pc(
                tw,
                meta,
                &mut sm.coef_done,
                &mut sm.tidx_done,
                &mut sm.tidx_pending,
                &mut slot_bidx,
                &mut crossed,
            );
            slots[tw.slot].bidx_done = slot_bidx;
            if crossed {
                ev.progress = true;
            }
            match g {
                Gate::Blocked => {
                    // Blocked in the R2D2 address-generation front end.
                    if S::ENABLED {
                        sh.sink
                            .stall(sm_gi, wi as u32, StallCause::OperandCollector);
                    }
                    return Ok(Attempt::Next);
                }
                Gate::Done => {
                    // Warp finished via earlier skip chain.
                    return Ok(Attempt::Next);
                }
                Gate::Ready(pc) => {
                    let ph = meta.map_or(Phase::Main, |m| m.phase_of(pc));
                    (pc, ph.is_linear(), ph)
                }
            }
        };
        let instr = &kernel.instrs[pc];
        {
            let tw = sm.warps[wi].as_ref().unwrap();
            let lr = meta.map(|m| LinearReadiness {
                cr: &sm.cr_ready,
                tr: &sm.tr_ready,
                br_slot: sm.br_ready[tw.slot],
                lr_tr: &m.lr_tr,
            });
            let wake = deps_wake(tw, instr, lr.as_ref());
            if wake > now {
                ev.wake = ev.wake.min(wake);
                if S::ENABLED {
                    // A provisional cause is recorded either way; when a
                    // PENDING entry participates (wake saturates), the drain
                    // patches the buffered event with the resolved winner.
                    let cause = deps_block_cause(tw, instr, lr.as_ref());
                    if M::DEFERRED && wake == PENDING {
                        let entries = deps_block_entries(tw, instr, lr.as_ref(), tw.slot);
                        let buf_idx = sh.sink.stall_index();
                        sh.sink.stall(sm_gi, wi as u32, cause);
                        sh.mem.defer(DrainItem::Fix(StallFix {
                            cycle: now,
                            sm: sm_gi,
                            buf_idx,
                            entries,
                        }));
                    } else {
                        sh.sink.stall(sm_gi, wi as u32, cause);
                    }
                }
                return Ok(Attempt::Next);
            }
        }
        // --- execute functionally ---
        let tw = sm.warps[wi].as_mut().unwrap();
        let tslot = tw.slot;
        let mut info = {
            // Deferred mode locks global memory only for global loads/stores
            // (atomics defer their RMW entirely; see `EvKind::Atomic`).
            let needs_global = matches!(
                instr.op,
                Op::Ld(MemSpace::Global) | Op::St(MemSpace::Global)
            ) || (matches!(instr.op, Op::Atom(_)) && !M::DEFERRED);
            let lin = sm.store.as_mut().map(|s| (meta.unwrap(), s, tslot));
            let smem = &mut sm.slots[tslot].smem;
            let scratch = if ctx.wants_vals && phase == Phase::Main {
                Some(&mut *sh.scratch)
            } else {
                None
            };
            let w = &mut tw.w;
            sh.mem.with_gmem(needs_global, |gmem| {
                let mut ex = WarpExec {
                    kernel,
                    cfg: ctx.cfgr,
                    params: &ctx.launch.params,
                    ntid: [ctx.launch.block.x, ctx.launch.block.y, ctx.launch.block.z],
                    nctaid: [ctx.launch.grid.x, ctx.launch.grid.y, ctx.launch.grid.z],
                    smid: sm_gi,
                    gmem,
                    smem,
                    linear: lin,
                    scratch,
                    watchdog: ctx.cfg.watchdog_warp_instrs,
                    defer_global_atomics: M::DEFERRED,
                };
                ex.step(w)
            })?
        };
        let mut atom_vals = info.atom.take();
        *sh.last_issue = now;
        ev.progress = true;
        let charged = if phase.is_linear() || matches!(instr.op, Op::Exit) {
            info.exec_mask.count_ones()
        } else {
            info.active.count_ones()
        } as u64;

        // --- classify ---
        let disposition = if phase != Phase::Main || instr.op.is_control() {
            if phase == Phase::Coef {
                Disposition::Scalar
            } else {
                Disposition::Execute
            }
        } else {
            sh.filter.classify(&IssueCtx {
                pc,
                instr,
                block: tw.w.block_lin,
                warp_in_block: tw.w.warp_in_block,
                exec_mask: info.exec_mask,
                vals: if ctx.wants_vals {
                    Some(&*sh.scratch)
                } else {
                    None
                },
                mem: info.mem.as_ref(),
            })
        };

        if disposition == Disposition::Skip {
            sh.stats.skipped_warp_instrs += 1;
            sh.stats.skipped_thread_instrs += charged;
            if M::DEFERRED {
                if let Some(vals) = atom_vals.take() {
                    // Functional effects of a skipped atomic still apply:
                    // queue the RMW with no lines and no scoreboard target so
                    // the drain performs it with zero timing side effects.
                    let mi = info.mem.as_ref().unwrap();
                    let Op::Atom(aop) = instr.op else {
                        unreachable!()
                    };
                    sh.mem.defer(DrainItem::Mem(MemEvent {
                        cycle: now,
                        sm: sm_gi,
                        wi: wi as u32,
                        seq: tw.seq,
                        lines: Vec::new(),
                        eager_worst: 0,
                        extra: 0,
                        kind: EvKind::Atomic(Box::new(AtomApply {
                            aop,
                            ty: mi.ty,
                            mask: mi.mask,
                            addrs: mi.addrs,
                            vals: *vals,
                            value_dst: instr.dst,
                        })),
                        dst: None,
                        prev_tr: 0,
                    }));
                }
            }
            // Results are available immediately; no charges.
            skips += 1;
            if tw.w.done || info.outcome != Outcome::Normal {
                // fall through to completion handling below
            } else if skips < MAX_SKIPS_PER_PICK {
                continue;
            }
        }

        // --- charge (Execute / Scalar / post-skip bookkeeping) ---
        if disposition != Disposition::Skip {
            *issued_this_cycle += 1;
            if S::ENABLED {
                sh.sink.issue(sm_gi, wi as u32);
            }
            let scalar = disposition == Disposition::Scalar;
            let stats = &mut *sh.stats;
            stats.warp_instrs += 1;
            stats.thread_instrs += if scalar { 1 } else { charged };
            stats.warp_instrs_by_phase[phase.idx()] += 1;
            stats.thread_instrs_by_phase[phase.idx()] += if scalar { 1 } else { charged };
            if scalar {
                stats.scalar_warp_instrs += 1;
            }
            stats.events.fetch_decode += 1;
            let (vr, sr) = rf_reads_of(instr);
            if scalar {
                stats.events.rf_scalar_reads += vr + sr;
                if instr.dst.is_some() {
                    stats.events.rf_scalar_writes += 1;
                }
            } else {
                stats.events.rf_reads += vr;
                stats.events.rf_scalar_reads += sr;
                if instr.dst.is_some() {
                    match instr.dst {
                        Some(Dst::Cr(_)) | Some(Dst::Br(_)) => {
                            stats.events.rf_scalar_writes += 1;
                        }
                        _ => stats.events.rf_writes += 1,
                    }
                }
            }
            let lanes = if scalar { 1 } else { charged };
            if !instr.op.is_mem() && !instr.op.is_control() {
                match (instr.op, instr.ty) {
                    (Op::Sfu(_), _) => stats.events.sfu_lane_ops += lanes,
                    (_, Ty::F32) => stats.events.fp_lane_ops += lanes,
                    (_, Ty::F64) => stats.events.fp64_lane_ops += lanes,
                    _ => stats.events.int_lane_ops += lanes,
                }
            }

            // Latency & scoreboard. The R2D2 adders apply to both resolved
            // and deferred accesses, so compute them separately.
            let mut adders = 0u64;
            if linear_phase {
                adders += ctx.cfg.r2d2.fetch_table;
            }
            if reads_r2d2_class(instr) {
                adders += ctx.cfg.r2d2.regid_calc;
                if matches!(info.mem, Some(ref m) if matches!(m.space, MemSpace::Global))
                    && matches!(instr.mem, Some(mm) if matches!(mm.base, Operand::Lr(_)))
                {
                    adders += ctx.cfg.r2d2.lr_add;
                }
            }
            let res = match &info.mem {
                Some(mi) => mem_latency(
                    ctx.cfg,
                    mi,
                    &mut sm.l1,
                    &mut *sh.mem,
                    now,
                    &mut *sh.stats,
                    &mut *sh.sink,
                ),
                None => MemRes::Now(base_latency(ctx.cfg, instr), CAUSE_ALU),
            };
            let tw = sm.warps[wi].as_mut().unwrap();
            let tw_slot = tw.slot;
            let tw_seq = tw.seq;
            match res {
                MemRes::Now(lat0, mcause) => {
                    let lat = lat0 + adders;
                    match instr.dst {
                        Some(Dst::Reg(r)) => {
                            tw.reg_ready[r.0 as usize] = now + lat;
                            if S::ENABLED {
                                tw.reg_cause[r.0 as usize] = mcause;
                            }
                        }
                        Some(Dst::Pred(p)) => tw.pred_ready[p.0 as usize] = now + lat,
                        Some(Dst::Cr(k)) => sm.cr_ready[k as usize] = now + lat,
                        Some(Dst::Tr(k)) => {
                            let e = &mut sm.tr_ready[k as usize];
                            *e = (*e).max(now + lat);
                        }
                        Some(Dst::Br(_)) => sm.br_ready[tw_slot] = now + lat,
                        None => {}
                    }
                }
                MemRes::Defer {
                    lines,
                    eager_worst,
                    extra_n,
                } => {
                    // Mark the destination pending and queue the event; the
                    // epoch drain resolves the exact latency in sequential
                    // shared-memory order. The scoreboard blocks a second
                    // write to the same destination while the first is in
                    // flight (`deps_wake` covers `dst`), so at most one
                    // event targets a given cell and `prev_tr` is exact.
                    let mut prev_tr = 0;
                    match instr.dst {
                        Some(Dst::Reg(r)) => tw.reg_ready[r.0 as usize] = PENDING,
                        Some(Dst::Pred(p)) => tw.pred_ready[p.0 as usize] = PENDING,
                        Some(Dst::Cr(k)) => sm.cr_ready[k as usize] = PENDING,
                        Some(Dst::Tr(k)) => {
                            prev_tr = sm.tr_ready[k as usize];
                            sm.tr_ready[k as usize] = PENDING;
                        }
                        Some(Dst::Br(_)) => sm.br_ready[tw_slot] = PENDING,
                        None => {}
                    }
                    let mi = info.mem.as_ref().unwrap();
                    let kind = if mi.atomic {
                        let Op::Atom(aop) = instr.op else {
                            unreachable!()
                        };
                        EvKind::Atomic(Box::new(AtomApply {
                            aop,
                            ty: mi.ty,
                            mask: mi.mask,
                            addrs: mi.addrs,
                            vals: atom_vals.take().map(|b| *b).unwrap_or_default(),
                            value_dst: instr.dst,
                        }))
                    } else if mi.write {
                        EvKind::Store
                    } else {
                        EvKind::Load
                    };
                    sh.mem.defer(DrainItem::Mem(MemEvent {
                        cycle: now,
                        sm: sm_gi,
                        wi: wi as u32,
                        seq: tw_seq,
                        lines,
                        eager_worst,
                        extra: extra_n + adders,
                        kind,
                        dst: instr.dst,
                        prev_tr,
                    }));
                }
            }
        }

        // --- outcome handling ---
        let tw = sm.warps[wi].as_mut().unwrap();
        let warp_done = tw.w.done;
        let at_barrier = info.outcome == Outcome::Barrier;
        if at_barrier {
            sm.slots[tslot].barrier_wait += 1;
        }
        if warp_done {
            sm.slots[tslot].live -= 1;
        }
        // Barrier release: all live warps arrived.
        let slot = &mut sm.slots[tslot];
        if slot.barrier_wait > 0 && slot.barrier_wait == slot.live {
            slot.barrier_wait = 0;
            for wj in (0..ctx.wpb).map(|k| tslot * ctx.wpb + k) {
                if let Some(t) = sm.warps[wj].as_mut() {
                    t.w.at_barrier = false;
                }
            }
        }
        if warp_done && slot.live == 0 {
            slot.active = false;
            *sh.remaining -= 1;
            let blk = sm.warps[wi].as_ref().unwrap().w.block_lin;
            sh.filter.on_block_done(blk);
            for wj in (0..ctx.wpb).map(|k| tslot * ctx.wpb + k) {
                if let Some(t) = sm.warps[wj].take() {
                    sm.free_ready.push((t.reg_ready, t.pred_ready, t.reg_cause));
                }
                sm.lane_seq[wj % ctx.nsched].retain(|&x| x as usize != wj);
            }
            if S::ENABLED {
                sh.sink.warp_delta(sm_gi, -(ctx.wpb as i32));
            }
            // Static refill: this SM only ever takes blocks congruent to its
            // id mod num_sms, so the assignment is independent of completion
            // order across SMs (and thus of shard interleaving).
            let nb = sh.sm_next[sm_gi as usize];
            if nb < ctx.total_blocks {
                sm.slots[tslot].first_wave = false;
                dispatch_block(ctx, sm, sm_gi, tslot, nb, &mut *sh.sink);
                sh.sm_next[sm_gi as usize] = nb + ctx.cfg.num_sms as u64;
            }
        }
        if disposition != Disposition::Skip || warp_done || at_barrier {
            if !linear_mode {
                sm.gto_last[sched] = Some(wi);
            } else {
                sm.rr_ptr[sched] = (wi / ctx.nsched + 1) % (sm.warps.len() / ctx.nsched).max(1);
            }
            return Ok(Attempt::Used);
        }
        // Skip chain exhausted its budget: issue slot spent.
        return Ok(Attempt::Used);
    }
}

/// Record the cycle at which this SM's R2D2 phase gates all opened.
fn eval_gates_open(sm: &mut Sm, now: u64) {
    if sm.gates_open_cycle.is_none()
        && sm.coef_done
        && sm.tidx_done
        && sm
            .slots
            .iter()
            .all(|s| !s.active || !s.first_wave || s.bidx_done)
    {
        sm.gates_open_cycle = Some(now);
    }
}

/// One cycle of one SM under the lockstep reference: rebuild and sort each
/// scheduler's candidate list from scratch, exactly as the original loop did.
fn sm_pass_lockstep<S: EventSink, M: MemBackend>(
    ctx: &LaunchCtx<'_>,
    sm: &mut Sm,
    sh: &mut Shared<'_, S, M>,
    sm_gi: u32,
    now: u64,
) -> Result<(), SimError> {
    // Round-robin only while the SM-wide linear prologue (coefficients
    // + thread-index parts) is in flight (Sec. 4.1); per-block
    // block-index recomputation rides on normal GTO scheduling.
    let linear_mode = ctx.meta.is_some() && (!sm.coef_done || !sm.tidx_done);
    let mut issued_this_cycle = 0u32;
    let mut ev = EvAcc::new(); // unused by the reference loop
    for sched in 0..ctx.nsched {
        if issued_this_cycle >= ctx.cfg.sm_issue_width {
            break;
        }
        // Build candidate order.
        let mut order: Vec<usize> = (sched..sm.warps.len())
            .step_by(ctx.nsched)
            .filter(|&i| is_candidate(&sm.warps, i))
            .collect();
        if order.is_empty() {
            continue;
        }
        if linear_mode {
            // Round-robin while linear instructions are pending (Sec. 4.1).
            let ptr = sm.rr_ptr[sched];
            let len = sm.warps.len();
            order.sort_by_key(|&i| {
                let pos = i / ctx.nsched;
                (pos + len - ptr) % len
            });
        } else {
            order.sort_by_key(|&i| sm.warps[i].as_ref().map_or(u64::MAX, |t| t.seq));
            if let Some(last) = sm.gto_last[sched] {
                if let Some(p) = order.iter().position(|&i| i == last) {
                    let l = order.remove(p);
                    order.insert(0, l);
                }
            }
        }
        for &wi in &order {
            let a = attempt_issue(
                ctx,
                sm,
                sh,
                sm_gi,
                sched,
                wi,
                now,
                linear_mode,
                &mut issued_this_cycle,
                &mut ev,
            )?;
            if let Attempt::Used = a {
                break;
            }
        }
    }
    eval_gates_open(sm, now);
    if S::ENABLED {
        let any_barrier = sm
            .warps
            .iter()
            .flatten()
            .any(|t| t.w.at_barrier && !t.w.done);
        sh.sink.sm_cycle_end(sm_gi, ev.progress, any_barrier);
    }
    Ok(())
}

/// One cycle of one SM under the event-driven loop: walk the persistent
/// per-scheduler orderings (no allocation, no sort) and return whether the
/// SM progressed plus its earliest blocked-warp wakeup. Presents candidates
/// in exactly the order the lockstep pass would: for RR, ring positions
/// `ptr..=maxpos` then `0..ptr` (the sort key `(pos + len - ptr) % len`
/// ranks all `pos >= ptr` ascending before all `pos < ptr` ascending); for
/// GTO, `gto_last` first (when a candidate) then the seq-ordered lane list.
fn sm_pass_event<S: EventSink, M: MemBackend>(
    ctx: &LaunchCtx<'_>,
    sm: &mut Sm,
    sh: &mut Shared<'_, S, M>,
    sm_gi: u32,
    now: u64,
) -> Result<EvAcc, SimError> {
    let linear_mode = ctx.meta.is_some() && (!sm.coef_done || !sm.tidx_done);
    let mut issued_this_cycle = 0u32;
    let mut ev = EvAcc::new();
    'sched: for sched in 0..ctx.nsched {
        if issued_this_cycle >= ctx.cfg.sm_issue_width {
            break;
        }
        if linear_mode {
            let len = sm.warps.len();
            if sched >= len {
                continue;
            }
            let maxpos = (len - 1 - sched) / ctx.nsched;
            let ptr = sm.rr_ptr[sched];
            // rr_ptr is always <= maxpos (it is taken modulo the lane
            // length); fall back to 0 defensively, matching what the
            // lockstep sort key degenerates to for an out-of-range ptr.
            let ptr = if ptr > maxpos { 0 } else { ptr };
            for pos in (ptr..=maxpos).chain(0..ptr) {
                let wi = sched + pos * ctx.nsched;
                if !is_candidate(&sm.warps, wi) {
                    continue;
                }
                let a = attempt_issue(
                    ctx,
                    sm,
                    sh,
                    sm_gi,
                    sched,
                    wi,
                    now,
                    linear_mode,
                    &mut issued_this_cycle,
                    &mut ev,
                )?;
                if let Attempt::Used = a {
                    continue 'sched;
                }
            }
        } else {
            let last = sm.gto_last[sched].filter(|&l| is_candidate(&sm.warps, l));
            if let Some(l) = last {
                let a = attempt_issue(
                    ctx,
                    sm,
                    sh,
                    sm_gi,
                    sched,
                    l,
                    now,
                    linear_mode,
                    &mut issued_this_cycle,
                    &mut ev,
                )?;
                if let Attempt::Used = a {
                    continue 'sched;
                }
            }
            // Index-walk the lane list: membership only changes inside an
            // attempt that returns `Used`, which exits this loop.
            let mut k = 0;
            while k < sm.lane_seq[sched].len() {
                let wi = sm.lane_seq[sched][k] as usize;
                k += 1;
                if Some(wi) == last || !is_candidate(&sm.warps, wi) {
                    continue;
                }
                let a = attempt_issue(
                    ctx,
                    sm,
                    sh,
                    sm_gi,
                    sched,
                    wi,
                    now,
                    linear_mode,
                    &mut issued_this_cycle,
                    &mut ev,
                )?;
                if let Attempt::Used = a {
                    continue 'sched;
                }
            }
        }
    }
    eval_gates_open(sm, now);
    if S::ENABLED {
        let any_barrier = sm
            .warps
            .iter()
            .flatten()
            .any(|t| t.w.at_barrier && !t.w.done);
        sh.sink.sm_cycle_end(sm_gi, ev.progress, any_barrier);
    }
    Ok(ev)
}

/// The reference main loop: advance one cycle at a time.
fn run_lockstep<S: EventSink>(
    ctx: &LaunchCtx<'_>,
    m: &mut Machine<'_, S>,
) -> Result<u64, SimError> {
    let mut now = 0u64;
    while m.remaining > 0 {
        now += 1;
        if now > ctx.cfg.watchdog_cycles {
            return Err(SimError::Watchdog {
                limit: ctx.cfg.watchdog_cycles,
            });
        }
        if now - m.last_issue > DEADLOCK_WINDOW {
            return Err(SimError::Deadlock { cycle: now });
        }
        if ctx.cancelled() {
            return Err(SimError::Cancelled { cycle: now });
        }
        if S::ENABLED {
            m.sink.cycle_start(now);
        }
        for sm_i in 0..m.sms.len() {
            let (sm, mut sh) = m.split(sm_i);
            sm_pass_lockstep(ctx, sm, &mut sh, sm_i as u32, now)?;
        }
    }
    Ok(now)
}

/// The event-driven main loop. Identical per-cycle semantics to
/// [`run_lockstep`], plus two exact skips:
///
/// * Per SM: a pass that makes no progress (nothing executed, no gate
///   boundary crossed) leaves every warp blocked either on a scoreboard
///   time (its `EvAcc::wake`) or on an event only that SM's own progress
///   can trigger (gate entry, barrier release). No other SM can wake it —
///   block refill is static per SM, gates, barriers and the linear
///   scoreboards are SM-local, and the shared L2/DRAM and filter state only
///   matter once an instruction issues — so the SM is not passed again
///   before `sm_wake[sm]`; a profiling sink repeats its last attribution.
/// * Machine-wide: when no SM progressed, `now` jumps to the minimum of the
///   stored wakeups and the first cycle at which the watchdog or deadlock
///   check would fire; the loop head then performs exactly the checks the
///   lockstep loop would have performed there. With no finite wakeup, the
///   jump lands on the error cycle and the run terminates with the
///   identical `SimError`.
fn run_event<S: EventSink>(ctx: &LaunchCtx<'_>, m: &mut Machine<'_, S>) -> Result<u64, SimError> {
    let mut now = 0u64;
    // First cycle at which each SM's pass can differ from its last one.
    let mut sm_wake = vec![0u64; m.sms.len()];
    while m.remaining > 0 {
        now += 1;
        if now > ctx.cfg.watchdog_cycles {
            return Err(SimError::Watchdog {
                limit: ctx.cfg.watchdog_cycles,
            });
        }
        if now - m.last_issue > DEADLOCK_WINDOW {
            return Err(SimError::Deadlock { cycle: now });
        }
        if ctx.cancelled() {
            return Err(SimError::Cancelled { cycle: now });
        }
        if S::ENABLED {
            m.sink.cycle_start(now);
        }
        let mut progress = false;
        let mut wake = u64::MAX;
        for (sm_i, sm_wake) in sm_wake.iter_mut().enumerate() {
            if *sm_wake > now {
                if S::ENABLED {
                    m.sink.sm_cycle_repeat(sm_i as u32);
                }
            } else {
                let (sm, mut sh) = m.split(sm_i);
                let ev = sm_pass_event(ctx, sm, &mut sh, sm_i as u32, now)?;
                progress |= ev.progress;
                *sm_wake = if ev.progress { now + 1 } else { ev.wake };
            }
            wake = wake.min(*sm_wake);
        }
        if !progress && m.remaining > 0 {
            let error_at = ctx
                .cfg
                .watchdog_cycles
                .saturating_add(1)
                .min(m.last_issue.saturating_add(DEADLOCK_WINDOW + 1));
            let target = wake.min(error_at);
            debug_assert!(target > now, "wakeup must be in the future");
            if S::ENABLED && target > now + 1 {
                // Cycles now+1 .. target-1 are pure replays of this cycle's
                // per-SM attribution: no state changed, every blocked
                // operand's readiness time is >= target, gates and barriers
                // can only move on progress.
                m.sink.idle_skip(target - 1 - now);
            }
            // Loop head re-adds 1 and re-runs the error checks, exactly as
            // the lockstep loop would at `target`.
            now = target - 1;
        }
    }
    Ok(now)
}

/// The single real entry point behind [`crate::SimSession`]: set up
/// launch-wide state, dispatch the initial block wave, then run
/// single-threaded (`threads <= 1`, or when the filter cannot be forked) or
/// sharded across `threads` workers.
pub(crate) fn run_launch<S: EventSink>(
    cfg: &GpuConfig,
    launch: &Launch,
    gmem: &mut GlobalMem,
    filter: &mut dyn IssueFilter,
    sink: &mut S,
    threads: u32,
    cancel: Option<&CancelToken>,
) -> Result<Stats, SimError> {
    let kernel = &launch.kernel;
    let cfgr = Cfg::build(kernel);
    let meta = launch.meta.as_ref().filter(|m| m.has_linear());
    let phys = phys_regs_estimate(kernel, &cfgr);
    let resident = blocks_per_sm(cfg, launch, phys);
    if resident == 0 {
        return Err(SimError::Unschedulable);
    }
    let tpb = launch.threads_per_block();
    let wpb = launch.warps_per_block() as usize;
    let nsched = cfg.schedulers_per_sm as usize;
    filter.on_launch(kernel, [launch.block.x, launch.block.y, launch.block.z]);

    let sms: Vec<Sm> = (0..cfg.num_sms)
        .map(|_| Sm {
            warps: (0..resident as usize * wpb).map(|_| None).collect(),
            slots: (0..resident as usize)
                .map(|_| Slot {
                    active: false,
                    first_wave: true,
                    live: 0,
                    barrier_wait: 0,
                    smem: Vec::new(),
                    bidx_done: true,
                })
                .collect(),
            l1: Cache::new(cfg.l1),
            store: meta.map(|m| LinearStore::new(m, tpb as usize, resident as usize)),
            cr_ready: vec![0; meta.map_or(0, |m| m.n_cr)],
            tr_ready: vec![0; meta.map_or(0, |m| m.n_tr)],
            br_ready: vec![0; resident as usize],
            coef_done: meta.is_none(),
            tidx_done: meta.is_none(),
            tidx_pending: 0,
            owner_assigned: false,
            gto_last: vec![None; nsched],
            rr_ptr: vec![0; nsched],
            gates_open_cycle: if meta.is_none() { Some(0) } else { None },
            next_seq: 0,
            lane_seq: vec![Vec::new(); nsched],
            free_ready: Vec::new(),
        })
        .collect();

    let ctx = LaunchCtx {
        cfg,
        kernel,
        cfgr: &cfgr,
        meta,
        launch,
        tpb,
        wpb,
        nregs: kernel.num_regs(),
        npreds: kernel.num_preds().max(1),
        total_blocks: launch.num_blocks(),
        nsched,
        wants_vals: filter.wants_values(),
        cancel,
    };

    let mut sms = sms;
    let num_sms = cfg.num_sms as u64;

    // Initial breadth-first fill: block `slot * num_sms + sm` lands on SM
    // `sm`, so every block `b` statically belongs to SM `b % num_sms` and the
    // per-SM refill in `attempt_issue` keeps the same partition. Identical to
    // the original counter walk, but shard-independent.
    'fill: for slot_i in 0..resident as usize {
        for (sm_i, sm) in sms.iter_mut().enumerate() {
            let blk = slot_i as u64 * num_sms + sm_i as u64;
            if blk >= ctx.total_blocks {
                break 'fill;
            }
            dispatch_block(&ctx, sm, sm_i as u32, slot_i, blk, sink);
        }
    }
    let sm_next: Vec<u64> = (0..num_sms)
        .map(|i| i + resident as u64 * num_sms)
        .collect();

    let nshards = (threads as usize).clamp(1, cfg.num_sms.max(1) as usize);
    if nshards > 1 {
        // Fork the filter per shard (launch-time analysis state is cloned —
        // `fork_shard` runs after `on_launch`). A filter that does not
        // support forking falls back to the single-threaded path.
        let forks: Option<Vec<_>> = (0..nshards).map(|_| filter.fork_shard()).collect();
        if let Some(filters) = forks {
            return run_sharded(&ctx, sms, filters, sm_next, gmem, sink);
        }
    }

    let mut m = Machine {
        sms,
        stats: Stats::default(),
        mem: DirectMem {
            side: MemSide::new(cfg),
            gmem,
        },
        filter,
        scratch: OperandVals::default(),
        remaining: ctx.total_blocks,
        sm_next,
        last_issue: 0,
        sink,
    };

    let now = match cfg.loop_kind {
        LoopKind::Lockstep => run_lockstep(&ctx, &mut m)?,
        LoopKind::EventDriven => run_event(&ctx, &mut m)?,
    };
    if S::ENABLED {
        m.sink.launch_done(now);
    }

    let mut stats = m.stats;
    stats.cycles = now;
    stats.events.cycles = now;
    stats.prologue_cycles = m
        .sms
        .iter()
        .map(|s| s.gates_open_cycle.unwrap_or(0))
        .max()
        .unwrap_or(0);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::Dim3;
    use r2d2_isa::KernelBuilder;

    fn iota_kernel() -> Kernel {
        let mut b = KernelBuilder::new("iota", 1);
        let i = b.global_tid_x();
        let off = b.shl_imm_wide(i, 2);
        let p = b.ld_param(0);
        let a = b.add_wide(p, off);
        b.st_global(Ty::B32, a, 0, i);
        b.build()
    }

    #[test]
    fn timing_matches_functional_results() {
        let k = iota_kernel();
        let n = 8 * 128u64;
        let mk = |mut gmem: GlobalMem| {
            let out = gmem.alloc(n * 4);
            (gmem, out)
        };
        let (mut g1, out1) = mk(GlobalMem::new());
        let launch1 = Launch::new(k.clone(), Dim3::d1(8), Dim3::d1(128), vec![out1]);
        crate::functional::run(&launch1, &mut g1, 1_000_000, None).unwrap();

        let (mut g2, out2) = mk(GlobalMem::new());
        let launch2 = Launch::new(k, Dim3::d1(8), Dim3::d1(128), vec![out2]);
        let cfg = GpuConfig::default().with_num_sms(4);
        let stats = crate::SimSession::new(&cfg).run(&launch2, &mut g2).unwrap();
        assert_eq!(g1.bytes(), g2.bytes(), "timing and functional must agree");
        assert!(stats.cycles > 0);
        assert!(stats.warp_instrs > 0);
    }

    #[test]
    fn cancelled_token_aborts_every_loop_kind() {
        let k = iota_kernel();
        for (kind, threads) in [
            (LoopKind::Lockstep, 1),
            (LoopKind::EventDriven, 1),
            (LoopKind::Lockstep, 2),
            (LoopKind::EventDriven, 2),
        ] {
            let mut g = GlobalMem::new();
            let out = g.alloc(16 * 128 * 4);
            let launch = Launch::new(k.clone(), Dim3::d1(16), Dim3::d1(128), vec![out]);
            let cfg = GpuConfig::default().with_num_sms(4).with_loop_kind(kind);
            let token = CancelToken::new();
            token.cancel();
            let err = crate::SimSession::new(&cfg)
                .threads(threads)
                .cancel(&token)
                .run(&launch, &mut g)
                .unwrap_err();
            assert!(
                matches!(err, SimError::Cancelled { .. }),
                "{kind:?}/t{threads}: {err}"
            );
        }
    }

    #[test]
    fn cancelled_token_aborts_the_functional_run_between_blocks() {
        /// Triggers the token once block `.1` has completed.
        struct CancelAfter<'a>(&'a CancelToken, u64);
        impl crate::functional::Observer for CancelAfter<'_> {
            fn on_instr(&mut self, _: &crate::functional::InstrEvent<'_>) {}
            fn on_block_done(&mut self, block: u64) {
                if block == self.1 {
                    self.0.cancel();
                }
            }
        }
        fn run_with(
            k: &Kernel,
            obs: Option<&mut dyn crate::functional::Observer>,
            token: Option<&CancelToken>,
        ) -> (Result<crate::FuncStats, ExecError>, Vec<u8>) {
            let mut g = GlobalMem::new();
            let out = g.alloc(16 * 128 * 4);
            let launch = Launch::new(k.clone(), Dim3::d1(16), Dim3::d1(128), vec![out]);
            let r = crate::functional::run_cancellable(&launch, &mut g, 1_000_000, obs, token);
            (r, g.bytes().to_vec())
        }
        let k = iota_kernel();
        let token = CancelToken::new();
        assert_eq!(
            run_with(&k, None, Some(&token)),
            run_with(&k, None, None),
            "an armed but untriggered token must not perturb the run"
        );
        // Triggered mid-launch, the run stops before the next block.
        let (r, _) = run_with(&k, Some(&mut CancelAfter(&token, 2)), Some(&token));
        assert_eq!(r, Err(ExecError::Cancelled { block: 3 }));
    }

    #[test]
    fn untriggered_token_changes_nothing() {
        let k = iota_kernel();
        let run_with = |token: Option<&CancelToken>| {
            let mut g = GlobalMem::new();
            let out = g.alloc(8 * 128 * 4);
            let launch = Launch::new(k.clone(), Dim3::d1(8), Dim3::d1(128), vec![out]);
            let cfg = GpuConfig::default().with_num_sms(4);
            let mut s = crate::SimSession::new(&cfg);
            if let Some(t) = token {
                s = s.cancel(t);
            }
            s.run(&launch, &mut g).unwrap()
        };
        let token = CancelToken::new();
        assert_eq!(
            run_with(None),
            run_with(Some(&token)),
            "an armed but untriggered token must not perturb the run"
        );
    }

    #[test]
    fn more_sms_not_slower() {
        let k = iota_kernel();
        let run_with = |sms: u32| {
            let mut g = GlobalMem::new();
            let out = g.alloc(64 * 128 * 4);
            let launch = Launch::new(k.clone(), Dim3::d1(64), Dim3::d1(128), vec![out]);
            let cfg = GpuConfig::default().with_num_sms(sms);
            crate::SimSession::new(&cfg)
                .run(&launch, &mut g)
                .unwrap()
                .cycles
        };
        let c8 = run_with(8);
        let c32 = run_with(32);
        assert!(c32 <= c8, "more SMs should not be slower ({c32} vs {c8})");
    }

    #[test]
    fn barrier_kernel_completes() {
        let k = barrier_kernel();
        let mut g = GlobalMem::new();
        let out = g.alloc(256 * 4);
        let launch = Launch::new(k, Dim3::d1(1), Dim3::d1(256), vec![out]);
        let cfg = GpuConfig::default().with_num_sms(2);
        let stats = crate::SimSession::new(&cfg).run(&launch, &mut g).unwrap();
        assert!(stats.cycles > 0);
        for t in 0..256 {
            assert_eq!(g.read_i32(out, t), t as i32);
        }
    }

    #[test]
    fn occupancy_respects_limits() {
        let k = iota_kernel();
        let cfg = GpuConfig::default();
        let launch = Launch::new(k, Dim3::d1(1), Dim3::d1(1024), vec![0]);
        // 1024 threads = 32 warps; 64 warps/SM max -> 2 blocks by warps.
        let b = blocks_per_sm(&cfg, &launch, 16);
        assert_eq!(b, 2);
        let launch64 = Launch {
            block: Dim3::d1(64),
            ..launch
        };
        // 2 warps per block -> warp limit gives 32, block limit gives 32.
        assert_eq!(blocks_per_sm(&cfg, &launch64, 16), 32);
    }

    #[test]
    fn max_live_regs_is_reasonable() {
        let k = iota_kernel();
        let c = Cfg::build(&k);
        let live = max_live_regs(&k, &c);
        assert!(live >= 2 && live <= k.num_regs(), "live={live}");
    }

    fn barrier_kernel() -> Kernel {
        let mut b = KernelBuilder::new("barrier", 1);
        b.shared_bytes(256 * 4);
        let t = b.tid_x();
        let soff = b.shl_imm_wide(t, 2);
        b.st_shared(Ty::B32, soff, 0, t);
        b.bar();
        let v = b.ld_shared(Ty::B32, soff, 0);
        let goff = b.shl_imm_wide(t, 2);
        let p = b.ld_param(0);
        let addr = b.add_wide(p, goff);
        b.st_global(Ty::B32, addr, 0, v);
        b.build()
    }

    // Streams through `stride_blocks` * 4 bytes of input: DRAM-bound for
    // large strides, L1-resident for small ones.
    fn stream_kernel(stride_blocks: u32) -> Kernel {
        let mut b = KernelBuilder::new("ld", 2);
        let i = b.global_tid_x();
        let nb = b.imm32(stride_blocks as i32);
        let wrapped = b.rem_ty(Ty::B32, i, nb);
        let off = b.shl_imm_wide(wrapped, 2);
        let p = b.ld_param(0);
        let a = b.add_wide(p, off);
        let v = b.ld_global(Ty::F32, a, 0);
        let q = b.ld_param(1);
        let oo = b.shl_imm_wide(i, 2);
        let oa = b.add_wide(q, oo);
        b.st_global(Ty::F32, oa, 0, v);
        b.build()
    }

    #[test]
    fn cache_locality_speeds_up_reuse() {
        // Two kernels: one streams 4MB (DRAM-bound), one rereads 16KB (L1).
        let run = |k: Kernel| {
            let mut g = GlobalMem::new();
            let inp = g.alloc(1024 * 1024 * 4);
            let out = g.alloc(256 * 256 * 4);
            let launch = Launch::new(k, Dim3::d1(256), Dim3::d1(256), vec![inp, out]);
            let cfg = GpuConfig::default().with_num_sms(8);
            crate::SimSession::new(&cfg).run(&launch, &mut g).unwrap()
        };
        let hot = run(stream_kernel(1024)); // 4KB working set
        let cold = run(stream_kernel(1024 * 1024)); // way beyond L1
        assert!(
            hot.l1_hits * 2 > hot.l1_hits + hot.l1_misses,
            "hot loop should mostly hit L1: {} hits {} misses",
            hot.l1_hits,
            hot.l1_misses
        );
        assert!(cold.dram_txns > hot.dram_txns);
    }

    // --- lockstep vs event-driven differential coverage -------------------

    fn run_kind(
        kind: LoopKind,
        k: &Kernel,
        grid: u32,
        block: u32,
        allocs: &[u64],
        watchdog: Option<u64>,
    ) -> Result<(Stats, Vec<u8>), SimError> {
        let mut g = GlobalMem::new();
        let params: Vec<u64> = allocs.iter().map(|&b| g.alloc(b)).collect();
        let launch = Launch::new(k.clone(), Dim3::d1(grid), Dim3::d1(block), params);
        let cfg = GpuConfig::default()
            .with_num_sms(4)
            .with_loop_kind(kind)
            .with_watchdog_cycles(watchdog.unwrap_or(GpuConfig::default().watchdog_cycles));
        let stats = crate::SimSession::new(&cfg).run(&launch, &mut g)?;
        Ok((stats, g.bytes().to_vec()))
    }

    fn assert_loops_agree(k: &Kernel, grid: u32, block: u32, allocs: &[u64]) {
        let (s1, m1) = run_kind(LoopKind::Lockstep, k, grid, block, allocs, None).unwrap();
        let (s2, m2) = run_kind(LoopKind::EventDriven, k, grid, block, allocs, None).unwrap();
        assert_eq!(s1, s2, "stats must be bit-identical across loop kinds");
        assert_eq!(m1, m2, "memory must be bit-identical across loop kinds");
    }

    #[test]
    fn event_loop_matches_lockstep_on_alu_kernel() {
        assert_loops_agree(&iota_kernel(), 8, 128, &[8 * 128 * 4]);
    }

    #[test]
    fn event_loop_matches_lockstep_on_dram_bound_kernel() {
        assert_loops_agree(
            &stream_kernel(1024 * 1024),
            64,
            256,
            &[1024 * 1024 * 4, 64 * 256 * 4],
        );
    }

    #[test]
    fn event_loop_matches_lockstep_on_barrier_kernel() {
        assert_loops_agree(&barrier_kernel(), 4, 256, &[256 * 4]);
    }

    #[test]
    fn event_loop_skips_idle_cycles_without_changing_cycle_count() {
        // A single small block leaves long fully-idle stretches behind each
        // DRAM miss — exactly the cycles the event loop must skip over while
        // still reporting the same end-to-end cycle count.
        let k = stream_kernel(1024 * 1024);
        let (s1, _) = run_kind(
            LoopKind::Lockstep,
            &k,
            1,
            32,
            &[1024 * 1024 * 4, 32 * 4],
            None,
        )
        .unwrap();
        let (s2, _) = run_kind(
            LoopKind::EventDriven,
            &k,
            1,
            32,
            &[1024 * 1024 * 4, 32 * 4],
            None,
        )
        .unwrap();
        assert_eq!(s1, s2);
        assert!(s1.cycles > 400, "expected DRAM latency to dominate");
    }

    #[test]
    fn watchdog_fires_identically_under_both_loops() {
        // Watchdog far below the DRAM latency: the event loop reaches it via
        // a jump, the lockstep loop by spinning — same error either way.
        let k = stream_kernel(1024 * 1024);
        let allocs = [1024 * 1024 * 4, 32 * 4];
        let e1 = run_kind(LoopKind::Lockstep, &k, 1, 32, &allocs, Some(50)).unwrap_err();
        let e2 = run_kind(LoopKind::EventDriven, &k, 1, 32, &allocs, Some(50)).unwrap_err();
        assert_eq!(e1, SimError::Watchdog { limit: 50 });
        assert_eq!(e1, e2);
    }
}
