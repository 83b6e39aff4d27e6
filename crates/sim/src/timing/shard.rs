//! Sharded multi-threaded timing loop.
//!
//! SMs interact only through the shared L2/DRAM side (and global memory), so
//! the loop partitions them into contiguous shards, runs each shard on a
//! `std::thread::scope` worker, and synchronizes on fixed-length *cycle
//! epochs*. Within an epoch every shard simulates its SMs privately; all
//! L2/DRAM-bound work is deferred into per-shard queues ([`DrainItem`]) and
//! resolved by the coordinator at the epoch boundary in deterministic
//! `(cycle, sm, program order)` order — exactly the order the sequential
//! loop would have touched the shared state in. Scoreboard destinations of
//! deferred accesses hold [`PENDING`] until the drain; the epoch length is
//! chosen (`min(l2_hit, dram, atomic)`) so no dependent could have issued
//! before the boundary anyway, which makes the sentinel invisible to
//! scheduling. The result is bit-identical `Stats`, memory contents, and
//! stall attribution versus `threads = 1`. See DESIGN.md "Sharded execution
//! & epoch protocol".
//!
//! Caveat (documented, not checked): kernels where a *plain* load races a
//! same-epoch store or atomic from another warp to the same address are not
//! deterministic across thread counts under `threads > 1` (the zoo's atomic
//! workloads are write-only or double-buffered, so all shipped workloads are
//! safe). Runs at a fixed thread count are always deterministic.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use super::{
    sm_pass_event, sm_pass_lockstep, DrainItem, EvAcc, EvKind, L2Kind, LaunchCtx, MemBackend,
    MemSide, Shared, SimError, Sm, CAUSE_DRAM, CAUSE_LSU, DEADLOCK_WINDOW, PENDING,
};
use crate::config::LoopKind;
use crate::exec::{atomic_rmw, OperandVals};
use crate::filter::IssueFilter;
use crate::mem::GlobalMem;
use crate::stats::Stats;
use r2d2_isa::Dst;
use r2d2_trace::{EventSink, NullSink, ShardBuffer, ShardSink, StallCause};

/// A sense-reversing spin barrier. `std::sync::Barrier` parks threads on a
/// condvar, which costs microseconds per crossing — at two crossings per
/// epoch that overhead would eat the parallel speedup on short epochs, so
/// workers spin briefly and then yield.
struct SpinBarrier {
    count: u64,
    arrived: AtomicU64,
    generation: AtomicU64,
}

impl SpinBarrier {
    fn new(count: usize) -> Self {
        SpinBarrier {
            count: count as u64,
            arrived: AtomicU64::new(0),
            generation: AtomicU64::new(0),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == self.count {
            self.arrived.store(0, Ordering::SeqCst);
            self.generation.fetch_add(1, Ordering::SeqCst);
        } else {
            // Brief spin for the common multi-core case, then yield so
            // oversubscribed (or single-core) machines still make progress.
            let mut spins = 0u32;
            while self.generation.load(Ordering::SeqCst) == generation {
                spins = spins.wrapping_add(1);
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// The deferred [`MemBackend`] owned by one shard.
struct ShardMem<'g, 'm> {
    /// The real global memory, locked only for the functional effects of
    /// global loads/stores (atomics defer their RMW to the drain).
    gmem: &'m Mutex<&'g mut GlobalMem>,
    /// Empty arena handed to instructions that must not touch global memory.
    /// An out-of-bounds panic here means the `needs_global` gating in
    /// `attempt_issue` is wrong — loud, instead of a silent race.
    dummy: GlobalMem,
    /// Deferred events and stall fixes, in shard program order.
    queue: Vec<DrainItem>,
}

impl MemBackend for ShardMem<'_, '_> {
    const DEFERRED: bool = true;

    fn with_gmem<R>(&mut self, needs_global: bool, f: impl FnOnce(&mut GlobalMem) -> R) -> R {
        if needs_global {
            let mut g = self.gmem.lock().unwrap();
            f(&mut g)
        } else {
            f(&mut self.dummy)
        }
    }

    fn side(&mut self) -> &mut MemSide {
        unreachable!("sharded backend resolves the shared memory side at the epoch drain")
    }

    fn defer(&mut self, item: DrainItem) {
        self.queue.push(item);
    }
}

/// One shard's complete private state. Workers lock it during the simulate
/// phase, the coordinator during drains; the barrier protocol makes the lock
/// uncontended — it exists so the borrow checker and `Send` bounds stay
/// honest.
struct ShardState<'g, 'm, S2: ShardSink> {
    sms: Vec<Sm>,
    /// Global SM id of `sms[0]` (the shard owns a contiguous range).
    base: u32,
    stats: Stats,
    filter: Box<dyn IssueFilter + Send>,
    scratch: OperandVals,
    remaining: u64,
    /// Full-length copy of the static block-assignment cursor; only this
    /// shard's entries are read or written.
    sm_next: Vec<u64>,
    last_issue: u64,
    now: u64,
    mem: ShardMem<'g, 'm>,
    buf: S2,
    /// First execution error in this shard, as `(cycle, global sm, error)`.
    error: Option<(u64, u32, SimError)>,
}

/// Simulate one epoch of one shard: cycles `st.now + 1 ..= target`.
///
/// `force_pass` (sink mode) keeps running SM passes after the shard's own
/// blocks finish so every SM emits `sm_cycle_end` each cycle until *global*
/// completion, matching the sequential event stream. Without it (plain
/// mode) the shard freezes at local completion — drained SMs' passes are
/// no-ops, so stopping early is exact.
fn shard_epoch<S2: ShardSink>(
    ctx: &LaunchCtx<'_>,
    st: &mut ShardState<'_, '_, S2>,
    target: u64,
    lockstep: bool,
    force_pass: bool,
) {
    while st.error.is_none() && st.now < target && (st.remaining > 0 || force_pass) {
        st.now += 1;
        let now = st.now;
        let mut ev = EvAcc::new();
        for i in 0..st.sms.len() {
            let gi = st.base + i as u32;
            let ShardState {
                sms,
                stats,
                filter,
                scratch,
                remaining,
                sm_next,
                last_issue,
                mem,
                buf,
                ..
            } = st;
            let mut sh = Shared {
                stats,
                mem,
                filter: &mut **filter,
                scratch,
                remaining,
                sm_next: sm_next.as_mut_slice(),
                last_issue,
                sink: buf,
            };
            let r = if lockstep {
                sm_pass_lockstep(ctx, &mut sms[i], &mut sh, gi, now)
            } else {
                sm_pass_event(ctx, &mut sms[i], &mut sh, gi, now).map(|e| {
                    ev.wake = ev.wake.min(e.wake);
                    ev.progress |= e.progress;
                })
            };
            if let Err(e) = r {
                st.error = Some((now, gi, e));
                return;
            }
        }
        if !lockstep && !force_pass && !ev.progress && st.remaining > 0 {
            // Shard-local idle skip: nothing in this shard can change before
            // the earliest finite wakeup, and deferred ([`PENDING`]) entries
            // resolve past the boundary, so clamping to `target + 1` is
            // exact (the loop then exits with `now == target`).
            let t = ev.wake.min(target + 1);
            debug_assert!(t > now, "wakeup must be in the future");
            st.now = t - 1;
        }
    }
}

/// Resolve one epoch's deferred work against the shared memory side, in the
/// exact order the sequential loop would have: stable-sorted by `(cycle,
/// sm)`, shard program order within. Scoreboard [`PENDING`] sentinels are
/// replaced by exact readiness times, deferred atomics apply their RMW, and
/// provisional stall causes are patched in the shard buffers.
#[allow(clippy::too_many_arguments)]
fn drain_epoch<S2: ShardSink>(
    ctx: &LaunchCtx<'_>,
    guards: &mut [MutexGuard<'_, ShardState<'_, '_, S2>>],
    per: usize,
    side: &mut MemSide,
    gmem_lock: &Mutex<&mut GlobalMem>,
    stats: &mut Stats,
    membuf: &mut S2,
) {
    let mut items: Vec<DrainItem> = Vec::new();
    for g in guards.iter_mut() {
        items.append(&mut g.mem.queue);
    }
    if items.is_empty() {
        return;
    }
    // Stable sort: intra-shard program order is preserved within equal keys,
    // and one (cycle, sm) key never spans shards.
    items.sort_by_key(|it| it.key());
    let mut gmem = gmem_lock.lock().unwrap();
    for item in items {
        match item {
            DrainItem::Mem(ev) => {
                let st = &mut *guards[ev.sm as usize / per];
                let sm = &mut st.sms[(ev.sm - st.base) as usize];
                let kind = match &ev.kind {
                    EvKind::Load => L2Kind::Load,
                    EvKind::Store => L2Kind::Store,
                    EvKind::Atomic(_) => L2Kind::Atomic,
                };
                let mut worst = ev.eager_worst;
                let mut served = false;
                for &line in &ev.lines {
                    let (lat, s) = side.l2_line(ctx.cfg, ev.cycle, line, kind, stats, membuf);
                    worst = worst.max(lat);
                    served |= s;
                }
                let ready = ev.cycle + worst + ev.extra;
                let mcause = if served { CAUSE_DRAM } else { CAUSE_LSU };
                // The issuing warp may have completed (and its slot been
                // recycled) within the epoch; warp-local effects are guarded
                // by the dispatch sequence number, exactly like the
                // sequential loop's writes (which would land on state that
                // is then recycled anyway).
                let live = sm.warps[ev.wi as usize]
                    .as_mut()
                    .filter(|t| t.seq == ev.seq);
                if let EvKind::Atomic(ap) = &ev.kind {
                    let mut tw = live;
                    for lane in 0..crate::exec::WARP_SIZE {
                        if ap.mask & (1u32 << lane) == 0 {
                            continue;
                        }
                        let old = atomic_rmw(
                            &mut gmem,
                            ap.aop,
                            ap.ty,
                            ap.addrs[lane],
                            ap.vals.x[lane],
                            ap.vals.desired[lane],
                        );
                        if let (Some(dst), Some(t)) = (ap.value_dst, tw.as_deref_mut()) {
                            t.w.write_warp_dst(lane, dst, old);
                        }
                    }
                    match ev.dst {
                        Some(Dst::Reg(r)) => {
                            if let Some(t) = tw {
                                t.reg_ready[r.0 as usize] = ready;
                                if let Some(c) = t.reg_cause.get_mut(r.0 as usize) {
                                    *c = mcause;
                                }
                            }
                        }
                        Some(Dst::Pred(p)) => {
                            if let Some(t) = tw {
                                t.pred_ready[p.0 as usize] = ready;
                            }
                        }
                        _ => {}
                    }
                    continue;
                }
                match ev.dst {
                    Some(Dst::Reg(r)) => {
                        if let Some(t) = live {
                            t.reg_ready[r.0 as usize] = ready;
                            // Empty unless the shard's sink is enabled, as in
                            // the sequential loop.
                            if let Some(c) = t.reg_cause.get_mut(r.0 as usize) {
                                *c = mcause;
                            }
                        }
                    }
                    Some(Dst::Pred(p)) => {
                        if let Some(t) = live {
                            t.pred_ready[p.0 as usize] = ready;
                        }
                    }
                    Some(Dst::Cr(k)) => sm.cr_ready[k as usize] = ready,
                    Some(Dst::Tr(k)) => sm.tr_ready[k as usize] = ev.prev_tr.max(ready),
                    // SM-shared writes are unconditional, matching the
                    // sequential scoreboard exactly (dispatch never resets
                    // `br_ready`). The slot index is derivable from `wi`.
                    Some(Dst::Br(_)) => sm.br_ready[ev.wi as usize / ctx.wpb] = ready,
                    None => {}
                }
            }
            DrainItem::Fix(fix) => {
                // Processing the merged stream in order means the SM's
                // shared scoreboard arrays now hold exactly the values the
                // sequential loop would have had when it examined this warp:
                // pre-examination writes applied, later ones still pending
                // behind us in the stream.
                let st = &mut *guards[fix.sm as usize / per];
                let sm = &st.sms[(fix.sm - st.base) as usize];
                let mut best_t = 0u64;
                let mut best = StallCause::Scoreboard;
                for &(t, cause, pend) in &fix.entries {
                    let t = match pend {
                        super::Pend::No => t,
                        super::Pend::Cr(k) => sm.cr_ready[k as usize],
                        super::Pend::Tr(k) => sm.tr_ready[k as usize],
                        super::Pend::Br(s) => sm.br_ready[s],
                    };
                    debug_assert!(t != PENDING, "pending entry unresolved at fix time");
                    if t > best_t {
                        best_t = t;
                        best = cause;
                    }
                }
                let st = &mut *guards[fix.sm as usize / per];
                st.buf.patch_stall(fix.buf_idx, best);
            }
        }
    }
}

/// Entry point from `run_launch`: `sms` arrive pre-filled with the initial
/// block wave (events already on `sink`), one forked filter per shard.
pub(super) fn run_sharded<S: EventSink>(
    ctx: &LaunchCtx<'_>,
    sms: Vec<Sm>,
    filters: Vec<Box<dyn IssueFilter + Send>>,
    sm_next: Vec<u64>,
    gmem: &mut GlobalMem,
    sink: &mut S,
) -> Result<Stats, SimError> {
    if S::ENABLED {
        run_shards::<S, ShardBuffer>(ctx, sms, filters, sm_next, gmem, sink)
    } else {
        run_shards::<S, NullSink>(ctx, sms, filters, sm_next, gmem, sink)
    }
}

fn run_shards<S: EventSink, S2: ShardSink>(
    ctx: &LaunchCtx<'_>,
    sms: Vec<Sm>,
    filters: Vec<Box<dyn IssueFilter + Send>>,
    sm_next: Vec<u64>,
    gmem: &mut GlobalMem,
    sink: &mut S,
) -> Result<Stats, SimError> {
    let cfg = ctx.cfg;
    let num_sms = cfg.num_sms as usize;
    let nshards = filters.len();
    let per = num_sms.div_ceil(nshards);
    let lockstep = matches!(cfg.loop_kind, LoopKind::Lockstep);
    // Sink mode must emit a complete, ordered event stream every cycle, so
    // epochs collapse to one cycle. Plain mode uses the longest epoch that
    // keeps PENDING invisible: any deferred access resolves no earlier than
    // the cheapest L2-bound latency after issue, so dependents could not
    // have issued inside the epoch anyway.
    let force_pass = S::ENABLED;
    let epoch = if S::ENABLED {
        1
    } else {
        cfg.lat.l2_hit.min(cfg.lat.dram).min(cfg.lat.atomic).max(1)
    };

    let gmem_lock = Mutex::new(gmem);
    let mut side = MemSide::new(cfg);
    let mut drain_stats = Stats::default();
    let mut membuf = S2::default();

    let mut states: Vec<Mutex<ShardState<'_, '_, S2>>> = Vec::with_capacity(nshards);
    {
        let total = ctx.total_blocks;
        let mut rest = sms;
        let mut base = 0usize;
        for filter in filters {
            let take = per.min(rest.len());
            let mut shard_sms = rest;
            rest = shard_sms.split_off(take);
            let remaining: u64 = (base..base + take)
                .map(|smi| {
                    let smi = smi as u64;
                    if smi < total {
                        (total - smi).div_ceil(num_sms as u64)
                    } else {
                        0
                    }
                })
                .sum();
            states.push(Mutex::new(ShardState {
                sms: shard_sms,
                base: base as u32,
                stats: Stats::default(),
                filter,
                scratch: OperandVals::default(),
                remaining,
                sm_next: sm_next.clone(),
                last_issue: 0,
                now: 0,
                mem: ShardMem {
                    gmem: &gmem_lock,
                    dummy: GlobalMem::default(),
                    queue: Vec::new(),
                },
                buf: S2::default(),
                error: None,
            }));
            base += take;
        }
    }

    let barrier = SpinBarrier::new(nshards + 1);
    let stop = AtomicBool::new(false);
    let target = AtomicU64::new(0);

    let result: Result<u64, SimError> = std::thread::scope(|scope| {
        for k in 0..nshards {
            let states = &states;
            let barrier = &barrier;
            let stop = &stop;
            let target = &target;
            scope.spawn(move || loop {
                barrier.wait();
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let t = target.load(Ordering::SeqCst);
                let mut st = states[k].lock().unwrap();
                shard_epoch(ctx, &mut st, t, lockstep, force_pass);
                drop(st);
                barrier.wait();
            });
        }

        let mut now = 0u64;
        let outcome = loop {
            // Workers are parked at the first barrier here, so the state
            // locks are free.
            let mut remaining = 0u64;
            let mut last_issue = 0u64;
            let mut first_err: Option<(u64, u32, SimError)> = None;
            for s in states.iter() {
                let st = s.lock().unwrap();
                remaining += st.remaining;
                last_issue = last_issue.max(st.last_issue);
                if let Some((c, g, e)) = &st.error {
                    if first_err
                        .as_ref()
                        .is_none_or(|(fc, fg, _)| (*c, *g) < (*fc, *fg))
                    {
                        first_err = Some((*c, *g, e.clone()));
                    }
                }
            }
            if let Some((_, _, e)) = first_err {
                break Err(e);
            }
            if remaining == 0 {
                break Ok(());
            }
            // Cooperative cancellation is observed at epoch boundaries only:
            // the workers are parked, so breaking here leaves every shard in
            // a coherent (if incomplete) state.
            if ctx.cancelled() {
                break Err(SimError::Cancelled { cycle: now });
            }
            // First cycle at which the sequential loop head would error.
            let error_at = cfg
                .watchdog_cycles
                .saturating_add(1)
                .min(last_issue.saturating_add(DEADLOCK_WINDOW + 1));
            if now >= error_at - 1 {
                // Workers simulated through error_at - 1 and the horizon did
                // not move: declare exactly what the sequential loop would.
                break Err(if error_at == cfg.watchdog_cycles.saturating_add(1) {
                    SimError::Watchdog {
                        limit: cfg.watchdog_cycles,
                    }
                } else {
                    SimError::Deadlock { cycle: error_at }
                });
            }
            let t = (now + epoch).min(error_at - 1);
            target.store(t, Ordering::SeqCst);
            barrier.wait(); // release workers into the epoch
            barrier.wait(); // workers done
            now = t;
            let mut guards: Vec<_> = states.iter().map(|s| s.lock().unwrap()).collect();
            drain_epoch(
                ctx,
                &mut guards,
                per,
                &mut side,
                &gmem_lock,
                &mut drain_stats,
                &mut membuf,
            );
            if S::ENABLED {
                // Epoch length is 1 in sink mode: emit the cycle envelope,
                // replay each shard's (patched) buffer in shard order, then
                // the drain's L2/DRAM events.
                sink.cycle_start(now);
                for g in guards.iter_mut() {
                    g.buf.replay_into(sink);
                    g.buf.clear();
                }
                membuf.replay_into(sink);
                membuf.clear();
            }
        };
        stop.store(true, Ordering::SeqCst);
        barrier.wait();
        outcome.map(|()| now)
    });

    let cycles = states
        .iter_mut()
        .map(|s| s.get_mut().unwrap().now)
        .max()
        .unwrap_or(0);
    result?;

    let mut stats = Stats::default();
    let mut prologue = 0u64;
    for s in states {
        let st = s.into_inner().unwrap();
        stats.merge_sequential(&st.stats);
        prologue = prologue.max(
            st.sms
                .iter()
                .map(|m| m.gates_open_cycle.unwrap_or(0))
                .max()
                .unwrap_or(0),
        );
    }
    stats.merge_sequential(&drain_stats);
    stats.cycles = cycles;
    stats.events.cycles = cycles;
    stats.prologue_cycles = prologue;
    if S::ENABLED {
        sink.launch_done(cycles);
    }
    Ok(stats)
}
