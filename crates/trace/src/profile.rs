//! The [`Profiler`] sink: per-SM/per-warp stall attribution plus
//! cycle-bucketed time series.
//!
//! Attribution charges every SM-cycle to exactly one category. Per cycle and
//! per SM, the rule is:
//!
//! 1. the SM issued or otherwise made forward progress → `issued`;
//! 2. else the **first blocked candidate** in scheduler order names the
//!    cause (and the warp charged in the per-warp table);
//! 3. else if any resident warp is parked at a barrier → `barrier`;
//! 4. else → `idle_skip` (drained or empty SM).
//!
//! When the event-driven loop fast-forwards `n` idle cycles it reports
//! [`EventSink::idle_skip`]; the profiler replays each SM's attribution from
//! the preceding (no-progress) cycle `n` more times. When it leaves one
//! sleeping SM out of a cycle it reports [`EventSink::sm_cycle_repeat`], and
//! the profiler replays that SM's last attribution once. No SM state changes
//! while nothing issues on it, so both reproduce exactly what the lockstep
//! loop would have recorded cycle by cycle.
//!
//! Time series use fixed-width cycle buckets that **coalesce**: whenever the
//! run outgrows `2 * target_buckets`, the bucket width doubles and adjacent
//! pairs merge, so any run length ends with between `target` and
//! `2 * target` buckets without knowing the cycle count up front.

use crate::progress::Progress;
use crate::sink::{EventSink, MemLevel, StallCause};

/// Default bucket-count target for time series (`r2d2 profile --buckets N`).
pub const DEFAULT_TARGET_BUCKETS: usize = 256;

const INITIAL_BUCKET_WIDTH: u64 = 64;

/// Sentinel warp id for attributions with no specific warp (barrier / idle).
const NO_WARP: u32 = u32::MAX;

/// Aggregated counters for one span of `width` consecutive cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bucket {
    /// Cycles of this bucket's span actually covered by the run.
    pub cycles: u64,
    /// Warp instructions issued (all SMs).
    pub issued: u64,
    /// SM-cycles charged to each stall cause.
    pub stalls: [u64; StallCause::COUNT],
    /// Sum over covered cycles of resident warps (all SMs); divide by
    /// `cycles` for the average active-warp count.
    pub warp_cycles: u64,
    pub l1_hits: u64,
    pub l1_accesses: u64,
    pub l2_hits: u64,
    pub l2_accesses: u64,
    pub dram_txns: u64,
    pub shared_accesses: u64,
}

impl Bucket {
    fn absorb(&mut self, o: &Bucket) {
        self.cycles += o.cycles;
        self.issued += o.issued;
        for i in 0..StallCause::COUNT {
            self.stalls[i] += o.stalls[i];
        }
        self.warp_cycles += o.warp_cycles;
        self.l1_hits += o.l1_hits;
        self.l1_accesses += o.l1_accesses;
        self.l2_hits += o.l2_hits;
        self.l2_accesses += o.l2_accesses;
        self.dram_txns += o.dram_txns;
        self.shared_accesses += o.shared_accesses;
    }
}

/// An [`EventSink`] that accumulates stall attribution and time series.
///
/// One `Profiler` may span several kernel launches (a multi-launch workload):
/// [`EventSink::launch_done`] shifts the cycle base so buckets keep growing
/// monotonically and the invariant holds against the *summed* cycle count.
#[derive(Debug)]
pub struct Profiler {
    width: u64,
    target: usize,
    buckets: Vec<Bucket>,
    /// Cycle offset of the current launch (sum of previous launches' cycles).
    base: u64,
    /// Absolute cycle currently being attributed.
    cur: u64,
    /// Total elapsed cycles over all finished launches plus the current one.
    total_cycles: u64,
    // Per-SM scratch, grown on demand.
    first_stall: Vec<Option<(u32, StallCause)>>,
    last_attr: Vec<(u32, StallCause)>,
    resident: Vec<i64>,
    total_resident: i64,
    // Aggregates.
    issued_sm_cycles: u64,
    stall_sm: Vec<[u64; StallCause::COUNT]>,
    stall_warp: Vec<Vec<[u64; StallCause::COUNT]>>,
    /// Live time-series mirror for external observers (see
    /// [`Profiler::share_progress`]); republished at bucket boundaries.
    progress: Option<Progress>,
    /// Absolute cycle at which the next progress publish is due (the next
    /// bucket edge as of the last publish).
    next_publish: u64,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new(DEFAULT_TARGET_BUCKETS)
    }
}

impl Profiler {
    /// A profiler whose time series ends with between `target_buckets` and
    /// `2 * target_buckets` buckets (minimum 1).
    pub fn new(target_buckets: usize) -> Self {
        Profiler {
            width: INITIAL_BUCKET_WIDTH,
            target: target_buckets.max(1),
            buckets: Vec::new(),
            base: 0,
            cur: 0,
            total_cycles: 0,
            first_stall: Vec::new(),
            last_attr: Vec::new(),
            resident: Vec::new(),
            total_resident: 0,
            issued_sm_cycles: 0,
            stall_sm: Vec::new(),
            stall_warp: Vec::new(),
            progress: None,
            next_publish: 0,
        }
    }

    /// Mirror the time series into `progress` so other threads can watch the
    /// run live. The mirror is republished whenever the run crosses a bucket
    /// edge (every `bucket_width` cycles, so a few thousand times per run at
    /// most) and once more on [`EventSink::launch_done`]; each publish
    /// replaces the whole series, because coalescing can rewrite history.
    /// Sharing does not perturb attribution or the bucket contents.
    pub fn share_progress(&mut self, progress: Progress) {
        self.progress = Some(progress);
        self.next_publish = 0;
    }

    /// Publish the current series to the shared mirror if `abs` reached the
    /// bucket edge recorded at the previous publish.
    fn maybe_publish(&mut self, abs: u64) {
        let Some(progress) = &self.progress else {
            return;
        };
        if abs < self.next_publish {
            return;
        }
        progress.publish(self.width, self.total_cycles, &self.buckets);
        self.next_publish = (abs / self.width + 1) * self.width;
    }

    fn grow_sm(&mut self, sm: usize) {
        if sm >= self.first_stall.len() {
            self.first_stall.resize(sm + 1, None);
            self.last_attr
                .resize(sm + 1, (NO_WARP, StallCause::IdleSkip));
            self.resident.resize(sm + 1, 0);
            self.stall_sm.resize(sm + 1, [0; StallCause::COUNT]);
            self.stall_warp.resize(sm + 1, Vec::new());
        }
    }

    /// Ensure the bucket containing absolute cycle `abs` exists, coalescing
    /// as needed; returns its index under the (possibly new) width.
    fn ensure_bucket(&mut self, abs: u64) -> usize {
        loop {
            let idx = (abs / self.width) as usize;
            if idx < 2 * self.target {
                if idx >= self.buckets.len() {
                    self.buckets.resize(idx + 1, Bucket::default());
                }
                return idx;
            }
            // Double the width and merge adjacent pairs.
            self.width *= 2;
            let merged: Vec<Bucket> = self
                .buckets
                .chunks(2)
                .map(|pair| {
                    let mut b = pair[0];
                    if let Some(second) = pair.get(1) {
                        b.absorb(second);
                    }
                    b
                })
                .collect();
            self.buckets = merged;
        }
    }

    /// Distribute `count` identical cycles starting at absolute cycle `from`
    /// across buckets: per cycle, one SM-cycle per cause per `counts[cause]`
    /// SMs, plus the resident-warp sample.
    fn add_span(&mut self, from: u64, count: u64, counts: &[u64; StallCause::COUNT]) {
        let warps = self.total_resident.max(0) as u64;
        let mut c = from;
        let end = from + count;
        while c < end {
            let idx = self.ensure_bucket(c);
            let next_edge = (c / self.width + 1) * self.width;
            let n = next_edge.min(end) - c;
            let b = &mut self.buckets[idx];
            b.cycles += n;
            b.warp_cycles += warps * n;
            for (k, &cnt) in counts.iter().enumerate() {
                b.stalls[k] += cnt * n;
            }
            c += n;
        }
    }

    /// Charge SM `smi`'s last attribution for `n` cycles in the per-SM and
    /// per-warp tables.
    fn charge_sm(&mut self, smi: usize, n: u64) {
        let (warp, cause) = self.last_attr[smi];
        self.stall_sm[smi][cause.idx()] += n;
        if warp != NO_WARP {
            let table = &mut self.stall_warp[smi];
            let w = warp as usize;
            if w >= table.len() {
                table.resize(w + 1, [0; StallCause::COUNT]);
            }
            table[w][cause.idx()] += n;
        }
    }

    /// Charge SM `smi`'s last attribution for the current cycle, time series
    /// included.
    fn charge_cycle(&mut self, smi: usize) {
        self.charge_sm(smi, 1);
        let cause = self.last_attr[smi].1;
        let idx = self.ensure_bucket(self.cur);
        self.buckets[idx].stalls[cause.idx()] += 1;
    }

    /// Width (in cycles) of each time-series bucket.
    pub fn bucket_width(&self) -> u64 {
        self.width
    }

    /// The time-series buckets, in cycle order.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// SM-cycles in which an SM issued (or made forward progress).
    pub fn issued_sm_cycles(&self) -> u64 {
        self.issued_sm_cycles
    }

    /// Stall SM-cycles per cause, summed over all SMs.
    pub fn stall_totals(&self) -> [u64; StallCause::COUNT] {
        let mut t = [0u64; StallCause::COUNT];
        for sm in &self.stall_sm {
            for i in 0..StallCause::COUNT {
                t[i] += sm[i];
            }
        }
        t
    }

    /// Per-SM stall SM-cycles per cause.
    pub fn per_sm(&self) -> &[[u64; StallCause::COUNT]] {
        &self.stall_sm
    }

    /// Per-SM, per-warp-slot stall SM-cycles per cause. Barrier/idle cycles
    /// have no responsible warp and appear only in [`Self::per_sm`].
    pub fn per_warp(&self) -> &[Vec<[u64; StallCause::COUNT]>] {
        &self.stall_warp
    }

    /// Number of SMs observed.
    pub fn num_sms(&self) -> usize {
        self.stall_sm.len()
    }

    /// Total elapsed cycles over all launches seen so far.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Checks `issued + sum(stalls) == cycles * num_sms`; returns
    /// `Err(message)` on violation. Call after the run completes.
    pub fn check_invariant(&self) -> Result<(), String> {
        let attributed: u64 = self.issued_sm_cycles + self.stall_totals().iter().sum::<u64>();
        let expected = self.total_cycles * self.num_sms() as u64;
        if attributed == expected {
            Ok(())
        } else {
            Err(format!(
                "stall attribution invariant violated: issued {} + stalls {} = {} != cycles {} * sms {} = {}",
                self.issued_sm_cycles,
                self.stall_totals().iter().sum::<u64>(),
                attributed,
                self.total_cycles,
                self.num_sms(),
                expected
            ))
        }
    }
}

impl EventSink for Profiler {
    const ENABLED: bool = true;

    fn cycle_start(&mut self, now: u64) {
        let abs = self.base + now;
        self.cur = abs;
        self.total_cycles = abs;
        let warps = self.total_resident.max(0) as u64;
        let idx = self.ensure_bucket(abs);
        let b = &mut self.buckets[idx];
        b.cycles += 1;
        b.warp_cycles += warps;
        self.maybe_publish(abs);
    }

    fn issue(&mut self, sm: u32, _warp: u32) {
        self.grow_sm(sm as usize);
        let idx = self.ensure_bucket(self.cur);
        self.buckets[idx].issued += 1;
    }

    fn stall(&mut self, sm: u32, warp: u32, cause: StallCause) {
        let sm = sm as usize;
        self.grow_sm(sm);
        if self.first_stall[sm].is_none() {
            self.first_stall[sm] = Some((warp, cause));
        }
    }

    fn mem_access(&mut self, level: MemLevel, hit: bool) {
        let idx = self.ensure_bucket(self.cur);
        let b = &mut self.buckets[idx];
        match level {
            MemLevel::L1 => {
                b.l1_accesses += 1;
                if hit {
                    b.l1_hits += 1;
                }
            }
            MemLevel::L2 => {
                b.l2_accesses += 1;
                if hit {
                    b.l2_hits += 1;
                }
            }
            MemLevel::Dram => b.dram_txns += 1,
            MemLevel::Shared => b.shared_accesses += 1,
        }
    }

    fn warp_delta(&mut self, sm: u32, delta: i32) {
        self.grow_sm(sm as usize);
        self.resident[sm as usize] += i64::from(delta);
        self.total_resident += i64::from(delta);
    }

    fn sm_cycle_end(&mut self, sm: u32, progressed: bool, any_barrier: bool) {
        let smi = sm as usize;
        self.grow_sm(smi);
        let first = self.first_stall[smi].take();
        if progressed {
            self.issued_sm_cycles += 1;
            return;
        }
        let (warp, cause) = first.unwrap_or((
            NO_WARP,
            if any_barrier {
                StallCause::Barrier
            } else {
                StallCause::IdleSkip
            },
        ));
        self.last_attr[smi] = (warp, cause);
        self.charge_cycle(smi);
    }

    fn sm_cycle_repeat(&mut self, sm: u32) {
        let smi = sm as usize;
        self.grow_sm(smi);
        self.charge_cycle(smi);
    }

    fn idle_skip(&mut self, skipped: u64) {
        if skipped == 0 {
            return;
        }
        // Replay each SM's attribution from the just-ended (no-progress)
        // cycle for every skipped cycle.
        let mut counts = [0u64; StallCause::COUNT];
        for smi in 0..self.stall_sm.len() {
            counts[self.last_attr[smi].1.idx()] += 1;
            self.charge_sm(smi, skipped);
        }
        self.add_span(self.cur + 1, skipped, &counts);
        self.cur += skipped;
        self.total_cycles = self.cur;
        self.maybe_publish(self.cur);
    }

    fn launch_done(&mut self, cycles: u64) {
        self.base += cycles;
        self.total_cycles = self.base;
        self.cur = self.base;
        if let Some(progress) = &self.progress {
            progress.publish(self.width, self.total_cycles, &self.buckets);
            self.next_publish = (self.cur / self.width + 1) * self.width;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a synthetic 2-SM trace: SM0 issues every cycle, SM1 stalls on
    /// DRAM via warp 3.
    fn drive(p: &mut Profiler, cycles: u64) {
        p.warp_delta(0, 8);
        p.warp_delta(1, 4);
        for now in 1..=cycles {
            p.cycle_start(now);
            p.issue(0, 0);
            p.sm_cycle_end(0, true, false);
            p.stall(1, 3, StallCause::Dram);
            p.stall(1, 2, StallCause::Scoreboard); // ignored: not first
            p.sm_cycle_end(1, false, false);
        }
        p.launch_done(cycles);
    }

    #[test]
    fn attribution_and_invariant() {
        let mut p = Profiler::new(8);
        drive(&mut p, 100);
        assert_eq!(p.issued_sm_cycles(), 100);
        assert_eq!(p.stall_totals()[StallCause::Dram.idx()], 100);
        assert_eq!(p.total_cycles(), 100);
        assert_eq!(p.num_sms(), 2);
        p.check_invariant().unwrap();
        // First stall wins: warp 3, not warp 2.
        assert_eq!(p.per_warp()[1][3][StallCause::Dram.idx()], 100);
        assert_eq!(
            p.per_warp()[1]
                .get(2)
                .map_or(0, |w| w[StallCause::Scoreboard.idx()]),
            0
        );
    }

    #[test]
    fn idle_skip_replays_last_attribution() {
        let mut p = Profiler::new(8);
        p.cycle_start(1);
        p.stall(0, 1, StallCause::LsuMshr);
        p.sm_cycle_end(0, false, false);
        p.stall(1, 0, StallCause::Dram);
        p.sm_cycle_end(1, false, false);
        p.idle_skip(9);
        p.launch_done(10);
        assert_eq!(p.total_cycles(), 10);
        assert_eq!(p.stall_totals()[StallCause::LsuMshr.idx()], 10);
        assert_eq!(p.stall_totals()[StallCause::Dram.idx()], 10);
        p.check_invariant().unwrap();
        assert_eq!(p.per_warp()[0][1][StallCause::LsuMshr.idx()], 10);
    }

    #[test]
    fn sm_cycle_repeat_replays_one_sms_last_attribution() {
        let mut p = Profiler::new(8);
        for now in 1..=3 {
            p.cycle_start(now);
            p.issue(0, 0);
            p.sm_cycle_end(0, true, false);
            if now == 1 {
                p.stall(1, 2, StallCause::Dram);
                p.sm_cycle_end(1, false, false);
            } else {
                p.sm_cycle_repeat(1);
            }
        }
        p.launch_done(3);
        p.check_invariant().unwrap();
        assert_eq!(p.issued_sm_cycles(), 3);
        assert_eq!(p.per_sm()[1][StallCause::Dram.idx()], 3);
        assert_eq!(p.per_warp()[1][2][StallCause::Dram.idx()], 3);
        assert_eq!(p.buckets()[0].stalls[StallCause::Dram.idx()], 3);
    }

    #[test]
    fn barrier_and_idle_fallbacks() {
        let mut p = Profiler::new(8);
        p.cycle_start(1);
        p.sm_cycle_end(0, false, true); // barrier, no stalled candidate
        p.sm_cycle_end(1, false, false); // fully idle
        p.launch_done(1);
        assert_eq!(p.stall_totals()[StallCause::Barrier.idx()], 1);
        assert_eq!(p.stall_totals()[StallCause::IdleSkip.idx()], 1);
        p.check_invariant().unwrap();
    }

    #[test]
    fn buckets_coalesce_toward_target() {
        let mut p = Profiler::new(4);
        drive(&mut p, 10_000);
        let n = p.buckets().len();
        assert!((4..=8).contains(&n), "got {n} buckets");
        let covered: u64 = p.buckets().iter().map(|b| b.cycles).sum();
        assert_eq!(covered, 10_000);
        let issued: u64 = p.buckets().iter().map(|b| b.issued).sum();
        assert_eq!(issued, 10_000);
        // Resident warps: 12 across both SMs, sampled every cycle.
        let wc: u64 = p.buckets().iter().map(|b| b.warp_cycles).sum();
        assert_eq!(wc, 12 * 10_000);
    }

    #[test]
    fn shared_progress_mirrors_final_series() {
        let mut plain = Profiler::new(8);
        drive(&mut plain, 10_000);

        let mut p = Profiler::new(8);
        let progress = crate::Progress::new();
        p.share_progress(progress.clone());
        drive(&mut p, 10_000);
        let snap = progress.snapshot();
        assert!(snap.seq > 1, "expected intermediate publishes");
        assert_eq!(snap.bucket_width, p.bucket_width());
        assert_eq!(snap.total_cycles, p.total_cycles());
        assert_eq!(snap.buckets, p.buckets());
        assert!(!snap.finished, "finish() is the owner's call, not ours");
        // Sharing must not perturb the series itself.
        assert_eq!(p.buckets(), plain.buckets());
        assert_eq!(p.bucket_width(), plain.bucket_width());
        p.check_invariant().unwrap();
    }

    #[test]
    fn multi_launch_accumulates() {
        let mut p = Profiler::new(8);
        drive(&mut p, 50);
        drive(&mut p, 70);
        assert_eq!(p.total_cycles(), 120);
        assert_eq!(p.issued_sm_cycles(), 120);
        p.check_invariant().unwrap();
    }
}
