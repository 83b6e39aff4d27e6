//! The event-sink trait the timing loops are generic over, the stall
//! taxonomy, and the no-op sink.

/// Why an SM failed to issue any instruction on a given cycle.
///
/// Exactly one cause is charged per SM per non-issuing cycle; the precedence
/// is: first blocked candidate in scheduler order (its cause), else `Barrier`
/// if any resident warp is parked at a barrier, else `IdleSkip`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum StallCause {
    /// Waiting on an ALU-produced register or predicate (classic RAW hazard).
    Scoreboard = 0,
    /// Waiting on an R2D2 operand class (CR/TR/BR/LR) or a phase gate —
    /// contention in the operand-collector/address-generation front end.
    OperandCollector = 1,
    /// Waiting on an in-flight load served by L1, L2, or shared memory.
    LsuMshr = 2,
    /// Waiting on an in-flight load that missed to DRAM.
    Dram = 3,
    /// No issuable warp and at least one warp parked at `bar.sync`.
    Barrier = 4,
    /// SM drained or empty; the event-driven loop fast-forwards these.
    IdleSkip = 5,
}

impl StallCause {
    /// Number of categories (array dimension for per-cause counters).
    pub const COUNT: usize = 6;

    /// All causes in index order.
    pub const ALL: [StallCause; Self::COUNT] = [
        StallCause::Scoreboard,
        StallCause::OperandCollector,
        StallCause::LsuMshr,
        StallCause::Dram,
        StallCause::Barrier,
        StallCause::IdleSkip,
    ];

    /// Stable snake_case name used in CSV headers and trace JSON.
    pub fn name(self) -> &'static str {
        match self {
            StallCause::Scoreboard => "scoreboard",
            StallCause::OperandCollector => "operand_collector",
            StallCause::LsuMshr => "lsu_mshr",
            StallCause::Dram => "dram",
            StallCause::Barrier => "barrier",
            StallCause::IdleSkip => "idle_skip",
        }
    }

    /// Index into `[u64; Self::COUNT]` counter arrays.
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// Which level of the memory hierarchy served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemLevel {
    L1,
    L2,
    Dram,
    Shared,
}

/// Sink for timing-loop events.
///
/// The timing loops call these hooks at issue/stall/commit decision points,
/// always guarded by `if S::ENABLED`. Implementations must be cheap: hooks
/// run inside the innermost scheduler loop. All default bodies are empty so
/// a sink only overrides what it consumes.
///
/// Cycle protocol (identical for both loop kinds):
/// 1. `cycle_start(now)` once per simulated cycle.
/// 2. During the per-SM passes: any number of `issue` / `stall` /
///    `mem_access` / `warp_delta` events.
/// 3. `sm_cycle_end(sm, progressed, any_barrier)` once per SM per cycle,
///    in ascending SM order. In its place the event-driven loop may call
///    `sm_cycle_repeat(sm)` for an SM it does not pass this cycle: that SM
///    made no progress on its last pass and nothing can change it before
///    its next wakeup, so its attribution from that pass repeats verbatim
///    for this cycle (it emits no other events in between).
/// 4. After a cycle where no SM progressed, the event-driven loop may call
///    `idle_skip(n)`: the next `n` cycles are not simulated and each SM's
///    attribution from the just-ended cycle repeats verbatim (no SM state
///    can change while nothing issues, so the replay is exact — this is
///    what keeps event-driven and lockstep attribution bit-identical).
/// 5. `launch_done(cycles)` once per kernel launch.
///
/// Under the sharded loop (`threads > 1`) the per-cycle ordering between
/// *different* SMs in step 2 is relaxed: each shard's events are buffered and
/// replayed at the epoch boundary in shard order, so events of two SMs owned
/// by different shards may interleave differently than in a single-threaded
/// run. Per-SM event order, the per-cycle envelope (`cycle_start` …
/// `sm_cycle_end` per SM), and the first-stall-per-SM rule are all preserved,
/// which is what every shipped sink depends on — attribution and traces stay
/// bit-identical.
pub trait EventSink {
    /// `false` compiles all instrumentation out of the timing loops.
    const ENABLED: bool;

    /// A new simulated cycle `now` begins (1-based, per launch).
    fn cycle_start(&mut self, _now: u64) {}
    /// SM `sm` issued one warp instruction from warp slot `warp`.
    fn issue(&mut self, _sm: u32, _warp: u32) {}
    /// Warp slot `warp` on SM `sm` was a candidate but could not issue.
    /// Only the first stall per SM per cycle matters for attribution.
    fn stall(&mut self, _sm: u32, _warp: u32, _cause: StallCause) {}
    /// One access was served at `level`; `hit` is false for misses
    /// (always true for `Dram`/`Shared`, which are endpoints).
    fn mem_access(&mut self, _level: MemLevel, _hit: bool) {}
    /// Resident-warp count on SM `sm` changed by `delta` (block dispatch
    /// or completion).
    fn warp_delta(&mut self, _sm: u32, _delta: i32) {}
    /// SM `sm` finished its pass for the current cycle.
    fn sm_cycle_end(&mut self, _sm: u32, _progressed: bool, _any_barrier: bool) {}
    /// SM `sm` was not passed this cycle; repeat its last (no-progress)
    /// `sm_cycle_end` attribution for the cycle.
    fn sm_cycle_repeat(&mut self, _sm: u32) {}
    /// The event-driven loop skips `skipped` fully idle cycles.
    fn idle_skip(&mut self, _skipped: u64) {}
    /// The launch finished after `cycles` elapsed cycles.
    fn launch_done(&mut self, _cycles: u64) {}
    /// Index the next [`EventSink::stall`] event will occupy in a buffering
    /// sink. The sharded timing loop records it so a provisionally-attributed
    /// stall can be patched once deferred memory latencies resolve at the
    /// epoch drain; non-buffering sinks just return 0.
    fn stall_index(&self) -> usize {
        0
    }
}

/// The do-nothing sink used by an unobserved `SimSession` run.
///
/// With `ENABLED = false` every `if S::ENABLED { sink.hook(..) }` guard is a
/// constant-false branch, so the optimizer removes both the branch and the
/// hook body: tracing costs nothing unless you opt in.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    const ENABLED: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_indices_match_all_order() {
        for (i, c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(c.idx(), i);
        }
        assert_eq!(StallCause::ALL.len(), StallCause::COUNT);
    }

    #[test]
    fn names_are_unique_snake_case() {
        let names: Vec<_> = StallCause::ALL.iter().map(|c| c.name()).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(n.chars().all(|ch| ch.is_ascii_lowercase() || ch == '_'));
            assert!(!names[..i].contains(n), "duplicate name {n}");
        }
    }

    #[test]
    fn null_sink_accepts_all_events() {
        let mut s = NullSink;
        s.cycle_start(1);
        s.issue(0, 0);
        s.stall(0, 0, StallCause::Dram);
        s.mem_access(MemLevel::L1, true);
        s.warp_delta(0, 4);
        s.sm_cycle_end(0, true, false);
        s.sm_cycle_repeat(0);
        s.idle_skip(100);
        s.launch_done(42);
        const { assert!(!NullSink::ENABLED) }
    }
}
