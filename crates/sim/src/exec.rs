//! Functional warp execution: SIMT stack, operand semantics, memory ops.
//!
//! The same executor backs both the purely functional runner (correctness,
//! ideal instruction-count machines) and the cycle-level timing model —
//! timing executes functionally at issue, then charges latency. This keeps a
//! single source of truth for semantics: machine models can change what an
//! instruction *costs*, never what it *does*.

use crate::linear::{LinearMeta, LinearStore, Phase};
use crate::mem::GlobalMem;
use r2d2_isa::{
    AtomOp, CmpOp, Dst, Instr, Kernel, MemOffset, MemSpace, Op, Operand, SfuOp, Special, Ty,
};

/// Warp width (paper Table 1: SIMD width 32).
pub const WARP_SIZE: usize = 32;

/// One 64-bit value per lane of a warp.
type Lanes = [u64; WARP_SIZE];

/// The lane indices set in `mask`, ascending.
fn lanes_of(mask: u32) -> impl Iterator<Item = usize> {
    (0..WARP_SIZE).filter(move |&l| mask & (1 << l) != 0)
}

/// Sentinel "no reconvergence pc" (reconverge at thread exit).
pub const NO_RPC: usize = usize::MAX;

/// One SIMT reconvergence stack entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackEntry {
    /// Next pc for this path.
    pub pc: usize,
    /// Reconvergence pc: entry is popped when `pc` reaches it.
    pub rpc: usize,
    /// Lanes on this path.
    pub mask: u32,
}

/// Architectural state of one warp.
#[derive(Debug, Clone)]
pub struct WarpState {
    /// Linear block id within the grid.
    pub block_lin: u64,
    /// Block index (ctaid.x/y/z).
    pub ctaid: [u32; 3],
    /// Warp index within its thread block.
    pub warp_in_block: u32,
    /// Per-lane GP registers, laid out `reg * 32 + lane`.
    pub regs: Vec<u64>,
    /// Predicate registers (one bit per lane).
    pub preds: Vec<u32>,
    /// SIMT reconvergence stack (top = current path).
    pub stack: Vec<StackEntry>,
    /// Lanes that executed `exit`.
    pub exited: u32,
    /// Lanes that exist (block size may not fill the last warp).
    pub init_mask: u32,
    /// Warp has fully terminated.
    pub done: bool,
    /// Warp is parked at a `bar.sync`.
    pub at_barrier: bool,
    /// Dynamic instructions executed (watchdog).
    pub instr_count: u64,
}

impl WarpState {
    /// Create a warp for `warp_in_block` of the given block, starting at
    /// `start_pc` (non-zero for R2D2 phase entry points).
    pub fn new(
        num_regs: usize,
        num_preds: usize,
        block_lin: u64,
        ctaid: [u32; 3],
        warp_in_block: u32,
        threads_per_block: u32,
        start_pc: usize,
    ) -> Self {
        let first = warp_in_block * WARP_SIZE as u32;
        let lanes = threads_per_block
            .saturating_sub(first)
            .min(WARP_SIZE as u32);
        let init_mask = if lanes >= 32 {
            u32::MAX
        } else {
            (1u32 << lanes) - 1
        };
        WarpState {
            block_lin,
            ctaid,
            warp_in_block,
            regs: vec![0; num_regs * WARP_SIZE],
            preds: vec![0; num_preds],
            stack: vec![StackEntry {
                pc: start_pc,
                rpc: NO_RPC,
                mask: init_mask,
            }],
            exited: 0,
            init_mask,
            done: lanes == 0,
            at_barrier: false,
            instr_count: 0,
        }
    }

    /// Pop completed/empty stack entries; return the current `(pc, active)`
    /// or `None` when the warp has terminated.
    pub fn sync_top(&mut self) -> Option<(usize, u32)> {
        loop {
            let Some(top) = self.stack.last() else {
                self.done = true;
                return None;
            };
            let live = top.mask & !self.exited;
            if live == 0 || top.pc == top.rpc {
                self.stack.pop();
                continue;
            }
            return Some((top.pc, live));
        }
    }

    /// Read one lane's GP register.
    pub fn reg(&self, r: u16, lane: usize) -> u64 {
        self.regs[r as usize * WARP_SIZE + lane]
    }

    /// Write one lane's GP register.
    pub fn set_reg(&mut self, r: u16, lane: usize, v: u64) {
        self.regs[r as usize * WARP_SIZE + lane] = v;
    }

    /// Write a per-warp destination (GP register or predicate) for one lane.
    /// Used by the sharded loop's drain to land deferred atomic results;
    /// linear-class destinations live in SM-level state and are not handled.
    pub(crate) fn write_warp_dst(&mut self, lane: usize, dst: Dst, v: u64) {
        match dst {
            Dst::Reg(r) => self.set_reg(r.0, lane, v),
            Dst::Pred(p) => {
                let bit = 1u32 << lane;
                let cur = &mut self.preds[p.0 as usize];
                if v != 0 {
                    *cur |= bit;
                } else {
                    *cur &= !bit;
                }
            }
            Dst::Cr(_) | Dst::Tr(_) | Dst::Br(_) => {
                unreachable!("linear-class atomic destinations are not deferrable")
            }
        }
    }
}

/// What a step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Ordinary instruction executed.
    Normal,
    /// A `bar.sync` was issued; the warp is parked until released.
    Barrier,
    /// The warp has fully terminated (nothing executed).
    Exited,
}

/// Per-lane memory access description (for the coalescer / timing model).
#[derive(Debug, Clone)]
pub struct MemInfo {
    /// Memory space.
    pub space: MemSpace,
    /// `true` for stores and atomics.
    pub write: bool,
    /// `true` for atomics.
    pub atomic: bool,
    /// Access width type.
    pub ty: Ty,
    /// Lanes that accessed memory.
    pub mask: u32,
    /// Byte address per lane (valid where `mask` is set).
    pub addrs: [u64; WARP_SIZE],
}

impl MemInfo {
    /// Unique cache-line ids touched, in first-touch lane order (the
    /// coalescer's transactions). At most one line per lane, so the set
    /// lives inline and the hot loop never allocates for it.
    pub fn lines(&self, line_size: u64) -> LineSet {
        let mut out = LineSet {
            len: 0,
            ids: [0; WARP_SIZE],
        };
        for lane in lanes_of(self.mask) {
            let l = self.addrs[lane] / line_size;
            if !out.contains(&l) {
                out.ids[out.len] = l;
                out.len += 1;
            }
        }
        out
    }
}

/// The distinct cache lines of one warp access ([`MemInfo::lines`]); derefs
/// to a slice in first-touch order.
#[derive(Debug, Clone, Copy)]
pub struct LineSet {
    len: usize,
    ids: [u64; WARP_SIZE],
}

impl std::ops::Deref for LineSet {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.ids[..self.len]
    }
}

/// Captured operand values for machine-model observers (WP/TB/DAC/DARSIE).
#[derive(Debug, Clone)]
pub struct OperandVals {
    /// Number of meaningful source vectors.
    pub nsrc: usize,
    /// Source value per lane per operand.
    pub srcs: [[u64; WARP_SIZE]; 3],
    /// Destination value per lane (where produced).
    pub dst: [u64; WARP_SIZE],
    /// `true` when `dst` was written.
    pub has_dst: bool,
}

impl Default for OperandVals {
    fn default() -> Self {
        OperandVals {
            nsrc: 0,
            srcs: [[0; WARP_SIZE]; 3],
            dst: [0; WARP_SIZE],
            has_dst: false,
        }
    }
}

/// Per-lane source operands of a global atomic whose read-modify-write was
/// deferred (see [`WarpExec::defer_global_atomics`]). The sharded timing
/// loop applies the captured operation later, in deterministic order.
#[derive(Debug, Clone)]
pub struct AtomVals {
    /// `srcs[0]` per lane (the operand / CAS comparand).
    pub x: [u64; WARP_SIZE],
    /// `srcs[1]` per lane (the CAS replacement value; 0 for non-CAS ops).
    pub desired: [u64; WARP_SIZE],
}

impl Default for AtomVals {
    fn default() -> Self {
        AtomVals {
            x: [0; WARP_SIZE],
            desired: [0; WARP_SIZE],
        }
    }
}

/// Result of executing one warp instruction.
#[derive(Debug, Clone)]
pub struct StepInfo {
    /// pc of the executed instruction.
    pub pc: usize,
    /// Lanes active on the current path (pre-guard).
    pub active: u32,
    /// Lanes that actually executed (post-guard, post-phase-forcing).
    pub exec_mask: u32,
    /// What happened.
    pub outcome: Outcome,
    /// Memory access info, when the instruction touched memory.
    pub mem: Option<MemInfo>,
    /// R2D2 phase of the executed pc (Main when no metadata).
    pub phase: Phase,
    /// Captured atomic operands when [`WarpExec::defer_global_atomics`]
    /// suppressed the read-modify-write (and the destination write, so any
    /// captured `OperandVals::dst` is stale for deferred atomics).
    pub atom: Option<Box<AtomVals>>,
}

/// Error from warp execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A warp exceeded the per-warp dynamic instruction watchdog.
    Watchdog {
        /// pc at which the limit was hit.
        pc: usize,
        /// the limit.
        limit: u64,
    },
    /// A functional run's [`crate::CancelToken`] was triggered.
    Cancelled {
        /// Linear id of the thread block that did not start.
        block: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Watchdog { pc, limit } => {
                write!(
                    f,
                    "warp exceeded {limit} dynamic instructions at pc {pc} (infinite loop?)"
                )
            }
            ExecError::Cancelled { block } => write!(f, "cancelled before block {block}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Execution context for stepping warps of one thread block.
pub struct WarpExec<'a> {
    /// The kernel being executed.
    pub kernel: &'a Kernel,
    /// Its CFG (for reconvergence points).
    pub cfg: &'a r2d2_isa::Cfg,
    /// Launch parameters (`P0..`), as 64-bit words.
    pub params: &'a [u64],
    /// Block dimensions.
    pub ntid: [u32; 3],
    /// Grid dimensions.
    pub nctaid: [u32; 3],
    /// SM id (for `%smid`).
    pub smid: u32,
    /// Device memory.
    pub gmem: &'a mut GlobalMem,
    /// This block's shared memory.
    pub smem: &'a mut [u8],
    /// R2D2 linear state: metadata, storage, and this block's slot.
    pub linear: Option<(&'a LinearMeta, &'a mut LinearStore, usize)>,
    /// When present, per-lane operand values are captured here (reused across
    /// steps to avoid per-instruction allocation).
    pub scratch: Option<&'a mut OperandVals>,
    /// Per-warp dynamic instruction limit.
    pub watchdog: u64,
    /// When `true`, global atomics do not touch `gmem` or their destination;
    /// the per-lane operands are captured in [`StepInfo::atom`] instead so
    /// the caller can apply the read-modify-write later in a deterministic
    /// order (the sharded timing loop's epoch drain).
    pub defer_global_atomics: bool,
}

impl<'a> WarpExec<'a> {
    fn special(&self, w: &WarpState, lane: usize, s: Special) -> u64 {
        let slot = w.warp_in_block as usize * WARP_SIZE + lane;
        match s {
            Special::Tid(0) => (slot as u64) % self.ntid[0] as u64,
            Special::Tid(1) => (slot as u64 / self.ntid[0] as u64) % self.ntid[1] as u64,
            Special::Tid(2) => slot as u64 / (self.ntid[0] as u64 * self.ntid[1] as u64),
            Special::Tid(_) => unreachable!(),
            Special::Ctaid(d) => w.ctaid[d as usize % 3] as u64,
            Special::Ntid(d) => self.ntid[d as usize % 3] as u64,
            Special::Nctaid(d) => self.nctaid[d as usize % 3] as u64,
            Special::LaneId => lane as u64,
            Special::SmId => self.smid as u64,
        }
    }

    fn read_operand(&self, w: &WarpState, lane: usize, op: Operand, dst_is_br: bool) -> u64 {
        match op {
            Operand::Reg(r) => w.reg(r.0, lane),
            Operand::Imm(v) => v as u64,
            Operand::Special(s) => self.special(w, lane, s),
            Operand::Pred(p) => u64::from(w.preds[p.0 as usize] & (1 << lane) != 0),
            Operand::Tr(k) => {
                let (_, store, _) = self.linear.as_ref().expect("%tr without linear state");
                let slot = w.warp_in_block as usize * WARP_SIZE + lane;
                store.tr_read(k, slot)
            }
            Operand::Br(_) => {
                let (_, store, bslot) = self.linear.as_ref().expect("%br without linear state");
                store.br[*bslot][lane]
            }
            Operand::Cr(k) => {
                let (_, store, _) = self.linear.as_ref().expect("%cr without linear state");
                if dst_is_br {
                    // Vector read across coefficient slots (paper Sec. 3.2.3):
                    // lane i of a `.br` instruction reads %cr(k+i).
                    store.cr.get(k as usize + lane).copied().unwrap_or(0)
                } else {
                    store.cr[k as usize]
                }
            }
            Operand::Lr(k) => {
                let (meta, store, bslot) = self.linear.as_ref().expect("%lr without linear state");
                let slot = w.warp_in_block as usize * WARP_SIZE + lane;
                store.lr_read(meta, k, *bslot, slot)
            }
        }
    }

    /// Read `op` for every lane, deciding once per operand kind: a register
    /// is a slice copy, an immediate a splat, a predicate a bit expansion, a
    /// special register a per-lane formula. The R2D2 classes read only the
    /// lanes in `mask` (their storage is shaped by the block, so an inactive
    /// lane may have no slot), leaving the rest of `out` as it was.
    fn read_lanes(&self, w: &WarpState, op: Operand, mask: u32, dst_is_br: bool, out: &mut Lanes) {
        match op {
            Operand::Reg(r) => {
                out.copy_from_slice(&w.regs[r.0 as usize * WARP_SIZE..][..WARP_SIZE]);
            }
            Operand::Imm(v) => *out = [v as u64; WARP_SIZE],
            Operand::Pred(p) => {
                let bits = w.preds[p.0 as usize];
                for (lane, o) in out.iter_mut().enumerate() {
                    *o = u64::from(bits >> lane & 1);
                }
            }
            Operand::Special(s) => {
                for (lane, o) in out.iter_mut().enumerate() {
                    *o = self.special(w, lane, s);
                }
            }
            Operand::Tr(_) | Operand::Br(_) | Operand::Cr(_) | Operand::Lr(_) => {
                for lane in lanes_of(mask) {
                    out[lane] = self.read_operand(w, lane, op, dst_is_br);
                }
            }
        }
    }

    /// Write `v` to `dst` on the lanes in `mask`: a full-mask register write
    /// is one slice copy, a predicate one masked bit merge.
    fn write_lanes(&mut self, w: &mut WarpState, dst: Dst, mask: u32, v: &Lanes) {
        match dst {
            Dst::Reg(r) => {
                let row = &mut w.regs[r.0 as usize * WARP_SIZE..][..WARP_SIZE];
                if mask == u32::MAX {
                    row.copy_from_slice(v);
                } else {
                    for lane in lanes_of(mask) {
                        row[lane] = v[lane];
                    }
                }
            }
            Dst::Pred(p) => {
                let bits = (0..WARP_SIZE).fold(0u32, |b, l| b | u32::from(v[l] != 0) << l);
                let cur = &mut w.preds[p.0 as usize];
                *cur = (*cur & !mask) | (bits & mask);
            }
            Dst::Cr(_) | Dst::Tr(_) | Dst::Br(_) => {
                for lane in lanes_of(mask) {
                    self.write_dst(w, lane, dst, v[lane]);
                }
            }
        }
    }

    fn write_dst(&mut self, w: &mut WarpState, lane: usize, dst: Dst, v: u64) {
        match dst {
            Dst::Reg(r) => w.set_reg(r.0, lane, v),
            Dst::Pred(p) => {
                let bit = 1u32 << lane;
                let cur = &mut w.preds[p.0 as usize];
                if v != 0 {
                    *cur |= bit;
                } else {
                    *cur &= !bit;
                }
            }
            Dst::Cr(k) => {
                let (_, store, _) = self.linear.as_mut().expect("%cr dst without linear state");
                store.cr[k as usize] = v;
            }
            Dst::Tr(k) => {
                let slot = w.warp_in_block as usize * WARP_SIZE + lane;
                let (_, store, _) = self.linear.as_mut().expect("%tr dst without linear state");
                store.tr_write(k, slot, v);
            }
            Dst::Br(_) => {
                let (_, store, bslot) = self.linear.as_mut().expect("%br dst without linear state");
                let bslot = *bslot;
                if lane < store.br[bslot].len() {
                    store.br[bslot][lane] = v;
                }
            }
        }
    }

    /// Execute one warp instruction. Returns [`StepInfo`] describing it.
    ///
    /// # Errors
    ///
    /// [`ExecError::Watchdog`] when the warp exceeds the dynamic-instruction
    /// limit (a runaway loop).
    pub fn step(&mut self, w: &mut WarpState) -> Result<StepInfo, ExecError> {
        let Some((pc, active)) = w.sync_top() else {
            return Ok(StepInfo {
                pc: 0,
                active: 0,
                exec_mask: 0,
                outcome: Outcome::Exited,
                mem: None,
                phase: Phase::Main,
                atom: None,
            });
        };
        w.instr_count += 1;
        if w.instr_count > self.watchdog {
            return Err(ExecError::Watchdog {
                pc,
                limit: self.watchdog,
            });
        }
        let instr = &self.kernel.instrs[pc];
        let phase = match &self.linear {
            Some((meta, _, _)) => meta.phase_of(pc),
            None => Phase::Main,
        };
        // Guard filtering.
        let mut exec_mask = match instr.guard {
            None => active,
            Some((p, true)) => active & w.preds[p.0 as usize],
            Some((p, false)) => active & !w.preds[p.0 as usize],
        };
        // R2D2 phase lane forcing: coefficients run on a single thread
        // (scalar pipeline); block-index parts run on n_lr lanes regardless of
        // block size (each lane computes a different coefficient vector).
        match phase {
            Phase::Coef => exec_mask = 1,
            Phase::Bidx => {
                let (meta, _, _) = self.linear.as_ref().unwrap();
                exec_mask = if meta.n_lr >= 32 {
                    u32::MAX
                } else {
                    (1u32 << meta.n_lr) - 1
                };
            }
            _ => {}
        }

        let mut info = StepInfo {
            pc,
            active,
            exec_mask,
            outcome: Outcome::Normal,
            mem: None,
            phase,
            atom: None,
        };

        match instr.op {
            Op::Bra(t) => {
                let t = t as usize;
                let top = w.stack.last_mut().unwrap();
                if instr.guard.is_none() {
                    top.pc = t;
                } else {
                    let taken = exec_mask;
                    let not_taken = active & !exec_mask;
                    if taken == 0 {
                        top.pc = pc + 1;
                    } else if not_taken == 0 {
                        top.pc = t;
                    } else {
                        // Divergence: current entry becomes the reconvergence
                        // entry; push fall-through then taken (taken runs first).
                        let rpc = self
                            .cfg
                            .reconvergence_pc(self.cfg.block_of[pc])
                            .unwrap_or(NO_RPC);
                        top.pc = rpc;
                        w.stack.push(StackEntry {
                            pc: pc + 1,
                            rpc,
                            mask: not_taken,
                        });
                        w.stack.push(StackEntry {
                            pc: t,
                            rpc,
                            mask: taken,
                        });
                    }
                }
                return Ok(info);
            }
            Op::Bar => {
                w.stack.last_mut().unwrap().pc = pc + 1;
                w.at_barrier = true;
                info.outcome = Outcome::Barrier;
                return Ok(info);
            }
            Op::Exit => {
                w.exited |= exec_mask;
                w.stack.last_mut().unwrap().pc = pc + 1;
                if w.exited & w.init_mask == w.init_mask {
                    w.stack.clear();
                    w.done = true;
                }
                return Ok(info);
            }
            _ => {}
        }

        // Data-path instruction. Detach the scratch buffer so captures don't
        // conflict with `&mut self` operand accesses.
        let mut vals = self.scratch.take();
        if let Some(vs) = vals.as_deref_mut() {
            vs.nsrc = instr.srcs.len().min(3);
            vs.has_dst = instr.dst.is_some();
        }
        let space = match instr.op {
            Op::Ld(s) | Op::St(s) => Some(s),
            Op::Atom(_) => Some(MemSpace::Global),
            _ => None,
        };
        let mut mem = space.map(|space| MemInfo {
            space,
            write: !matches!(instr.op, Op::Ld(_)),
            atomic: matches!(instr.op, Op::Atom(_)),
            ty: instr.ty,
            mask: exec_mask,
            addrs: [0; WARP_SIZE],
        });
        // A linear-class destination lives in SM storage that a later lane
        // of the same instruction may read back (`%cr`, or `%br` via `%lr`),
        // so those instructions run one lane at a time, in lane order.
        let linear_dst = matches!(instr.dst, Some(Dst::Cr(_) | Dst::Tr(_) | Dst::Br(_)));
        let mut rest = exec_mask;
        while rest != 0 {
            let mask = if linear_dst {
                rest & rest.wrapping_neg()
            } else {
                rest
            };
            self.exec_lanes(w, instr, mask, mem.as_mut(), &mut info, vals.as_deref_mut());
            rest &= !mask;
        }
        info.mem = mem;

        w.stack.last_mut().unwrap().pc = pc + 1;
        self.scratch = vals;
        Ok(info)
    }

    /// Execute a data-path instruction on the lanes in `mask` (non-empty) as
    /// lane vectors: each source is read once per operand kind, `(op, ty)` is
    /// matched once outside the lane loop, and the destination is written
    /// once. Memory instructions compute their addresses the same way and
    /// then touch memory lane by lane, recording addresses in `mem`.
    /// Operand values are captured into `vals` for the lanes in `mask` only.
    fn exec_lanes(
        &mut self,
        w: &mut WarpState,
        instr: &Instr,
        mask: u32,
        mem: Option<&mut MemInfo>,
        info: &mut StepInfo,
        vals: Option<&mut OperandVals>,
    ) {
        let ty = instr.ty;
        // How many sources the op reads; a store or atomic reads `srcs[0]`,
        // plus `srcs[1]` for a compare-and-swap.
        let nread = match instr.op {
            Op::Ld(_) => 0,
            Op::St(_) | Op::Atom(_) => 1 + usize::from(instr.op == Op::Atom(AtomOp::Cas)),
            _ => instr.srcs.len().min(3),
        };
        // Lane i of a `.br` ALU instruction reads %cr(k+i) (Sec. 3.2.3).
        let dst_is_br = mem.is_none() && matches!(instr.dst, Some(Dst::Br(_)));
        let mut s = [[0u64; WARP_SIZE]; 3];
        for (src, out) in instr.srcs[..nread].iter().zip(&mut s) {
            self.read_lanes(w, *src, mask, dst_is_br, out);
        }
        let mut out = [0u64; WARP_SIZE];
        let (ncap, produces) = match mem {
            None => {
                eval_lanes(instr.op, ty, self.params, &s, &mut out);
                (instr.srcs.len().min(3), true)
            }
            Some(mi) => {
                let mref = instr.mem.expect("memory instruction without memref");
                let mut base = [0u64; WARP_SIZE];
                self.read_lanes(w, mref.base, mask, false, &mut base);
                let cr = |k| self.read_operand(w, 0, Operand::Cr(k), false);
                let off = match mref.offset {
                    MemOffset::Imm(v) => v as u64,
                    MemOffset::Cr(k) => cr(k),
                    MemOffset::CrImm(k, v) => cr(k).wrapping_add(v as u64),
                };
                for lane in lanes_of(mask) {
                    let (addr, x) = (base[lane].wrapping_add(off), s[0][lane]);
                    mi.addrs[lane] = addr;
                    out[lane] = match instr.op {
                        Op::Ld(MemSpace::Global) => self.gmem.read(ty, addr),
                        Op::Ld(MemSpace::Shared) => shared_read(self.smem, ty, addr),
                        Op::St(MemSpace::Global) => {
                            self.gmem.write(ty, addr, x);
                            0
                        }
                        Op::St(MemSpace::Shared) => {
                            shared_write(self.smem, ty, addr, x);
                            0
                        }
                        Op::Atom(_) if self.defer_global_atomics => {
                            let cap = info.atom.get_or_insert_with(Box::default);
                            cap.x[lane] = x;
                            cap.desired[lane] = s[1][lane];
                            0
                        }
                        Op::Atom(aop) => atomic_rmw(self.gmem, aop, ty, addr, x, s[1][lane]),
                        _ => unreachable!(),
                    };
                }
                let produces = match instr.op {
                    Op::Ld(_) => true,
                    Op::Atom(_) => !self.defer_global_atomics,
                    _ => false,
                };
                (nread.min(1), produces)
            }
        };
        if let Some(vs) = vals {
            for lane in lanes_of(mask) {
                for (cap, src) in vs.srcs.iter_mut().zip(&s).take(ncap) {
                    cap[lane] = src[lane];
                }
                if produces {
                    vs.dst[lane] = out[lane];
                }
            }
        }
        if let (true, Some(d)) = (produces, instr.dst) {
            self.write_lanes(w, d, mask, &out);
        }
    }
}

/// Evaluate an ALU / mov / cvt / setp / selp / ld.param instruction on every
/// lane. `(op, ty)` is matched once, here: each arm is a lane loop over
/// [`alu`] or [`compare`] with constant arguments, which inlining
/// specialises. Lanes outside the exec mask compute garbage that the caller
/// never writes back; no arm can panic on a value.
fn eval_lanes(op: Op, ty: Ty, params: &[u64], s: &[Lanes; 3], out: &mut Lanes) {
    #[inline(always)]
    fn each(out: &mut Lanes, s: &[Lanes; 3], f: impl Fn(u64, u64, u64) -> u64) {
        for (l, o) in out.iter_mut().enumerate() {
            *o = f(s[0][l], s[1][l], s[2][l]);
        }
    }
    macro_rules! typed {
        ($f:expr) => {
            match ty {
                Ty::B32 => each(out, s, |a, b, c| $f(Ty::B32, a, b, c)),
                Ty::B64 => each(out, s, |a, b, c| $f(Ty::B64, a, b, c)),
                Ty::F32 => each(out, s, |a, b, c| $f(Ty::F32, a, b, c)),
                Ty::F64 => each(out, s, |a, b, c| $f(Ty::F64, a, b, c)),
                Ty::Pred => each(out, s, |a, b, c| $f(Ty::Pred, a, b, c)),
            }
        };
    }
    macro_rules! ops {
        ($($o:ident)*) => {
            match op {
                $(Op::$o => typed!(|t, a, b, c| alu(Op::$o, t, a, b, c)),)*
                Op::Setp(cmp) => typed!(|t, a, b, _| u64::from(compare(cmp, t, a, b))),
                Op::Selp => each(out, s, |a, b, c| if c != 0 { a } else { b }),
                Op::LdParam => each(out, s, |a, _, _| params.get(a as usize).copied().unwrap_or(0)),
                op => typed!(|t, a, b, c| alu(op, t, a, b, c)),
            }
        };
    }
    ops!(Mov Cvt Add Sub Mul Mad Shl Shr And Or Xor Not Min Max Div Rem Abs Neg)
}

fn shared_read(smem: &[u8], ty: Ty, addr: u64) -> u64 {
    let a = addr as usize;
    match ty {
        Ty::B32 => i32::from_le_bytes(smem[a..a + 4].try_into().unwrap()) as i64 as u64,
        Ty::F32 => u32::from_le_bytes(smem[a..a + 4].try_into().unwrap()) as u64,
        Ty::B64 | Ty::F64 => u64::from_le_bytes(smem[a..a + 8].try_into().unwrap()),
        Ty::Pred => u64::from(smem[a] != 0),
    }
}

fn shared_write(smem: &mut [u8], ty: Ty, addr: u64, v: u64) {
    let a = addr as usize;
    match ty {
        Ty::B32 | Ty::F32 => smem[a..a + 4].copy_from_slice(&(v as u32).to_le_bytes()),
        Ty::B64 | Ty::F64 => smem[a..a + 8].copy_from_slice(&v.to_le_bytes()),
        Ty::Pred => smem[a] = (v != 0) as u8,
    }
}

fn int_add(ty: Ty, a: u64, b: u64) -> u64 {
    match ty {
        Ty::B32 => ((a as u32 as i32).wrapping_add(b as u32 as i32)) as i64 as u64,
        _ => a.wrapping_add(b),
    }
}

fn int_min(ty: Ty, a: u64, b: u64) -> u64 {
    match ty {
        Ty::B32 => ((a as u32 as i32).min(b as u32 as i32)) as i64 as u64,
        _ => ((a as i64).min(b as i64)) as u64,
    }
}

fn int_max(ty: Ty, a: u64, b: u64) -> u64 {
    match ty {
        Ty::B32 => ((a as u32 as i32).max(b as u32 as i32)) as i64 as u64,
        _ => ((a as i64).max(b as i64)) as u64,
    }
}

/// Apply one lane of a global atomic read-modify-write, returning the old
/// value. The single place that defines atomic semantics: the eager path in
/// [`WarpExec::step`] and the sharded loop's deferred drain both call it.
pub(crate) fn atomic_rmw(
    gmem: &mut GlobalMem,
    aop: AtomOp,
    ty: Ty,
    addr: u64,
    x: u64,
    desired: u64,
) -> u64 {
    let old = gmem.read(ty, addr);
    let newv = match aop {
        AtomOp::Add => int_add(ty, old, x),
        AtomOp::Min => int_min(ty, old, x),
        AtomOp::Max => int_max(ty, old, x),
        AtomOp::Exch => x,
        AtomOp::Cas => {
            if old == x {
                desired
            } else {
                old
            }
        }
    };
    gmem.write(ty, addr, newv);
    old
}

/// Core ALU semantics. 32-bit integer results are stored sign-extended.
fn alu(op: Op, ty: Ty, a: u64, b: u64, c: u64) -> u64 {
    match ty {
        Ty::B32 => {
            let x = a as u32 as i32;
            let y = b as u32 as i32;
            let z = c as u32 as i32;
            let r: i32 = match op {
                Op::Mov => x,
                Op::Cvt => x, // i64 -> i32 truncation happens via the cast above
                Op::Add => x.wrapping_add(y),
                Op::Sub => x.wrapping_sub(y),
                Op::Mul => x.wrapping_mul(y),
                Op::Mad => x.wrapping_mul(y).wrapping_add(z),
                Op::Shl => x.wrapping_shl(b as u32 & 31),
                Op::Shr => x.wrapping_shr(b as u32 & 31),
                Op::And => x & y,
                Op::Or => x | y,
                Op::Xor => x ^ y,
                Op::Not => !x,
                Op::Min => x.min(y),
                Op::Max => x.max(y),
                Op::Div => {
                    if y == 0 {
                        0
                    } else {
                        x.wrapping_div(y)
                    }
                }
                Op::Rem => {
                    if y == 0 {
                        0
                    } else {
                        x.wrapping_rem(y)
                    }
                }
                Op::Abs => x.wrapping_abs(),
                Op::Neg => x.wrapping_neg(),
                Op::Sfu(_) => {
                    // Integer SFU is not meaningful; define as identity.
                    x
                }
                _ => unreachable!("alu called with non-ALU op {op:?}"),
            };
            r as i64 as u64
        }
        Ty::B64 => {
            let x = a as i64;
            let y = b as i64;
            let z = c as i64;
            let r: i64 = match op {
                Op::Mov => x,
                // b32 -> b64: storage is already sign-extended, so cvt is a copy.
                Op::Cvt => x,
                Op::Add => x.wrapping_add(y),
                Op::Sub => x.wrapping_sub(y),
                Op::Mul => x.wrapping_mul(y),
                Op::Mad => x.wrapping_mul(y).wrapping_add(z),
                Op::Shl => x.wrapping_shl(b as u32 & 63),
                Op::Shr => x.wrapping_shr(b as u32 & 63),
                Op::And => x & y,
                Op::Or => x | y,
                Op::Xor => x ^ y,
                Op::Not => !x,
                Op::Min => x.min(y),
                Op::Max => x.max(y),
                Op::Div => {
                    if y == 0 {
                        0
                    } else {
                        x.wrapping_div(y)
                    }
                }
                Op::Rem => {
                    if y == 0 {
                        0
                    } else {
                        x.wrapping_rem(y)
                    }
                }
                Op::Abs => x.wrapping_abs(),
                Op::Neg => x.wrapping_neg(),
                Op::Sfu(_) => x,
                _ => unreachable!("alu called with non-ALU op {op:?}"),
            };
            r as u64
        }
        Ty::F32 => {
            let x = f32::from_bits(a as u32);
            let y = f32::from_bits(b as u32);
            let z = f32::from_bits(c as u32);
            let r: f32 = match op {
                Op::Mov => x,
                // int -> f32 conversion (the storage is a sign-extended i64).
                Op::Cvt => a as i64 as f32,
                Op::Add => x + y,
                Op::Sub => x - y,
                Op::Mul => x * y,
                Op::Mad => x * y + z,
                Op::Min => x.min(y),
                Op::Max => x.max(y),
                Op::Div => x / y,
                Op::Abs => x.abs(),
                Op::Neg => -x,
                Op::Sfu(s) => sfu32(s, x),
                _ => unreachable!("f32 op {op:?} unsupported"),
            };
            r.to_bits() as u64
        }
        Ty::F64 => {
            let x = f64::from_bits(a);
            let y = f64::from_bits(b);
            let z = f64::from_bits(c);
            let r: f64 = match op {
                Op::Mov => x,
                // f32 -> f64 widening (paper Fig. 7: `cvt %fd4, %f3`).
                Op::Cvt => f64::from(f32::from_bits(a as u32)),
                Op::Add => x + y,
                Op::Sub => x - y,
                Op::Mul => x * y,
                Op::Mad => x * y + z,
                Op::Min => x.min(y),
                Op::Max => x.max(y),
                Op::Div => x / y,
                Op::Abs => x.abs(),
                Op::Neg => -x,
                Op::Sfu(s) => sfu64(s, x),
                _ => unreachable!("f64 op {op:?} unsupported"),
            };
            r.to_bits()
        }
        Ty::Pred => unreachable!("pred-typed ALU op"),
    }
}

fn sfu32(s: SfuOp, x: f32) -> f32 {
    match s {
        SfuOp::Rcp => 1.0 / x,
        SfuOp::Sqrt => x.sqrt(),
        SfuOp::Rsqrt => 1.0 / x.sqrt(),
        SfuOp::Ex2 => x.exp2(),
        SfuOp::Lg2 => x.log2(),
        SfuOp::Sin => x.sin(),
        SfuOp::Cos => x.cos(),
    }
}

fn sfu64(s: SfuOp, x: f64) -> f64 {
    match s {
        SfuOp::Rcp => 1.0 / x,
        SfuOp::Sqrt => x.sqrt(),
        SfuOp::Rsqrt => 1.0 / x.sqrt(),
        SfuOp::Ex2 => x.exp2(),
        SfuOp::Lg2 => x.log2(),
        SfuOp::Sin => x.sin(),
        SfuOp::Cos => x.cos(),
    }
}

fn compare(c: CmpOp, ty: Ty, a: u64, b: u64) -> bool {
    match ty {
        Ty::B32 => {
            let x = a as u32 as i32;
            let y = b as u32 as i32;
            cmp_ord(c, x.cmp(&y))
        }
        Ty::B64 => cmp_ord(c, (a as i64).cmp(&(b as i64))),
        Ty::F32 => {
            let x = f32::from_bits(a as u32);
            let y = f32::from_bits(b as u32);
            match x.partial_cmp(&y) {
                Some(o) => cmp_ord(c, o),
                None => c == CmpOp::Ne, // NaN: only `ne` holds
            }
        }
        Ty::F64 => {
            let x = f64::from_bits(a);
            let y = f64::from_bits(b);
            match x.partial_cmp(&y) {
                Some(o) => cmp_ord(c, o),
                None => c == CmpOp::Ne,
            }
        }
        Ty::Pred => cmp_ord(c, (a != 0).cmp(&(b != 0))),
    }
}

fn cmp_ord(c: CmpOp, o: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match c {
        CmpOp::Eq => o == Equal,
        CmpOp::Ne => o != Equal,
        CmpOp::Lt => o == Less,
        CmpOp::Le => o != Greater,
        CmpOp::Gt => o == Greater,
        CmpOp::Ge => o != Less,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_isa::{Cfg, KernelBuilder, Operand, PredReg, Reg};

    #[allow(clippy::too_many_arguments)]
    fn run_to_completion(
        kernel: &Kernel,
        ctaid: [u32; 3],
        warp_in_block: u32,
        tpb: u32,
        ntid: [u32; 3],
        nctaid: [u32; 3],
        gmem: &mut GlobalMem,
        params: &[u64],
    ) -> WarpState {
        let cfg = Cfg::build(kernel);
        let mut w = WarpState::new(
            kernel.num_regs(),
            kernel.num_preds().max(1),
            0,
            ctaid,
            warp_in_block,
            tpb,
            0,
        );
        let mut smem = vec![0u8; kernel.shared_bytes as usize];
        let mut ex = WarpExec {
            kernel,
            cfg: &cfg,
            params,
            ntid,
            nctaid,
            smid: 0,
            gmem,
            smem: &mut smem,
            linear: None,
            scratch: None,
            watchdog: 1_000_000,
            defer_global_atomics: false,
        };
        while !w.done {
            let s = ex.step(&mut w).unwrap();
            if s.outcome == Outcome::Barrier {
                w.at_barrier = false; // single-warp tests: barrier is a no-op
            }
        }
        w
    }

    #[test]
    fn vecadd_single_warp() {
        let mut b = KernelBuilder::new("vecadd", 3);
        let i = b.global_tid_x();
        let off = b.shl_imm_wide(i, 2);
        let pa = b.ld_param(0);
        let pb = b.ld_param(1);
        let pc = b.ld_param(2);
        let aa = b.add_wide(pa, off);
        let ba = b.add_wide(pb, off);
        let ca = b.add_wide(pc, off);
        let va = b.ld_global(Ty::F32, aa, 0);
        let vb = b.ld_global(Ty::F32, ba, 0);
        let vc = b.add_ty(Ty::F32, va, vb);
        b.st_global(Ty::F32, ca, 0, vc);
        let k = b.build();

        let mut gmem = GlobalMem::new();
        let a = gmem.alloc(32 * 4);
        let bb = gmem.alloc(32 * 4);
        let c = gmem.alloc(32 * 4);
        for i in 0..32 {
            gmem.write_f32(a, i, i as f32);
            gmem.write_f32(bb, i, 100.0 + i as f32);
        }
        run_to_completion(
            &k,
            [0; 3],
            0,
            32,
            [32, 1, 1],
            [1, 1, 1],
            &mut gmem,
            &[a, bb, c],
        );
        for i in 0..32 {
            assert_eq!(gmem.read_f32(c, i), 100.0 + 2.0 * i as f32);
        }
    }

    #[test]
    fn tid_decomposition_2d() {
        // Store tid.y into out[slot] for a (8,4,1) block.
        let mut b = KernelBuilder::new("tids", 1);
        let ty_ = b.tid_y();
        let tx = b.tid_x();
        let ntx = b.ntid_x();
        let slot = b.mad(ty_, ntx, tx);
        let off = b.shl_imm_wide(slot, 2);
        let p = b.ld_param(0);
        let addr = b.add_wide(p, off);
        b.st_global(Ty::B32, addr, 0, ty_);
        let k = b.build();
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(32 * 4);
        run_to_completion(&k, [0; 3], 0, 32, [8, 4, 1], [1, 1, 1], &mut gmem, &[out]);
        for slot in 0..32 {
            assert_eq!(gmem.read_i32(out, slot), (slot / 8) as i32, "slot {slot}");
        }
    }

    #[test]
    fn divergent_if_else_reconverges() {
        // if (lane < 10) out[i] = 1 else out[i] = 2; then out[i] += 10 (all).
        let mut b = KernelBuilder::new("div", 1);
        let i = b.tid_x();
        let off = b.shl_imm_wide(i, 2);
        let p0 = b.ld_param(0);
        let addr = b.add_wide(p0, off);
        let p = b.setp(CmpOp::Lt, Ty::B32, i, Operand::Imm(10));
        let else_l = b.label();
        let join = b.label();
        b.bra_if(p, false, else_l);
        b.st_global(Ty::B32, addr, 0, Operand::Imm(1));
        b.bra(join);
        b.place(else_l);
        b.st_global(Ty::B32, addr, 0, Operand::Imm(2));
        b.place(join);
        let v = b.ld_global(Ty::B32, addr, 0);
        let v2 = b.add(v, Operand::Imm(10));
        b.st_global(Ty::B32, addr, 0, v2);
        let k = b.build();
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(32 * 4);
        run_to_completion(&k, [0; 3], 0, 32, [32, 1, 1], [1, 1, 1], &mut gmem, &[out]);
        for lane in 0..32 {
            let want = if lane < 10 { 11 } else { 12 };
            assert_eq!(gmem.read_i32(out, lane), want, "lane {lane}");
        }
    }

    #[test]
    fn loop_counts_iterations() {
        // out[lane] = sum of 0..lane (a data-dependent loop trip count).
        let mut b = KernelBuilder::new("tri", 1);
        let lane = b.tid_x();
        let acc = b.imm32(0);
        let i = b.imm32(0);
        let top = b.here_label();
        let p = b.setp(CmpOp::Lt, Ty::B32, i, lane);
        let done = b.label();
        b.bra_if(p, false, done);
        b.assign_add(Ty::B32, acc, i);
        b.assign_add(Ty::B32, i, Operand::Imm(1));
        b.bra(top);
        b.place(done);
        let off = b.shl_imm_wide(lane, 2);
        let p0 = b.ld_param(0);
        let addr = b.add_wide(p0, off);
        b.st_global(Ty::B32, addr, 0, acc);
        let k = b.build();
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(32 * 4);
        run_to_completion(&k, [0; 3], 0, 32, [32, 1, 1], [1, 1, 1], &mut gmem, &[out]);
        for lane in 0..32i64 {
            assert_eq!(
                gmem.read_i32(out, lane as u64),
                (lane * (lane - 1) / 2) as i32
            );
        }
    }

    #[test]
    fn partial_last_warp_masks_lanes() {
        let mut b = KernelBuilder::new("partial", 1);
        let i = b.tid_x();
        let off = b.shl_imm_wide(i, 2);
        let p0 = b.ld_param(0);
        let addr = b.add_wide(p0, off);
        b.st_global(Ty::B32, addr, 0, Operand::Imm(7));
        let k = b.build();
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(32 * 4);
        // block of 40 threads: warp 1 has only 8 lanes; tid.x = 32..39
        run_to_completion(&k, [0; 3], 1, 40, [40, 1, 1], [1, 1, 1], &mut gmem, &[out]);
        // warp 1 lanes map to tid 32..39 -> out[0..8] untouched? No:
        // addresses are p0 + 4*tid, so indices 32..39 of a 40-element buffer.
        // We only allocated 32 entries; allocate more for this test instead.
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(64 * 4);
        run_to_completion(&k, [0; 3], 1, 40, [40, 1, 1], [1, 1, 1], &mut gmem, &[out]);
        for i in 0..64 {
            let want = if (32..40).contains(&i) { 7 } else { 0 };
            assert_eq!(gmem.read_i32(out, i), want, "i={i}");
        }
    }

    #[test]
    fn guarded_exit_terminates_lanes() {
        // lanes >= 4 exit early; survivors write 1.
        let mut b = KernelBuilder::new("gexit", 1);
        let i = b.tid_x();
        let p = b.setp(CmpOp::Ge, Ty::B32, i, Operand::Imm(4));
        b.exit();
        b.guard_last(p, true);
        let off = b.shl_imm_wide(i, 2);
        let p0 = b.ld_param(0);
        let addr = b.add_wide(p0, off);
        b.st_global(Ty::B32, addr, 0, Operand::Imm(1));
        let k = b.build();
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(32 * 4);
        run_to_completion(&k, [0; 3], 0, 32, [32, 1, 1], [1, 1, 1], &mut gmem, &[out]);
        for lane in 0..32 {
            assert_eq!(gmem.read_i32(out, lane), i32::from(lane < 4));
        }
    }

    #[test]
    fn atomics_accumulate() {
        let mut b = KernelBuilder::new("atom", 1);
        let p0 = b.ld_param(0);
        let one = b.imm32(1);
        b.atom(AtomOp::Add, Ty::B32, p0, 0, one);
        let k = b.build();
        let mut gmem = GlobalMem::new();
        let ctr = gmem.alloc(4);
        run_to_completion(&k, [0; 3], 0, 32, [32, 1, 1], [1, 1, 1], &mut gmem, &[ctr]);
        assert_eq!(gmem.read_i32(ctr, 0), 32);
    }

    #[test]
    fn shared_memory_roundtrip() {
        let mut b = KernelBuilder::new("sm", 1);
        b.shared_bytes(128);
        let i = b.tid_x();
        let soff32 = b.shl_imm(i, 2);
        let soff = b.cvt_wide(soff32);
        // write lane id to shared, read neighbour (i+1)%32 after barrier
        b.st_shared(Ty::B32, soff, 0, i);
        b.bar();
        let ip1 = b.add(i, Operand::Imm(1));
        let wrapped = b.and_ty(Ty::B32, ip1, Operand::Imm(31));
        let noff32 = b.shl_imm(wrapped, 2);
        let noff = b.cvt_wide(noff32);
        let n = b.ld_shared(Ty::B32, noff, 0);
        let goff = b.shl_imm_wide(i, 2);
        let p0 = b.ld_param(0);
        let addr = b.add_wide(p0, goff);
        b.st_global(Ty::B32, addr, 0, n);
        let k = b.build();
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(32 * 4);
        run_to_completion(&k, [0; 3], 0, 32, [32, 1, 1], [1, 1, 1], &mut gmem, &[out]);
        for lane in 0..32 {
            assert_eq!(gmem.read_i32(out, lane), ((lane + 1) % 32) as i32);
        }
    }

    #[test]
    fn watchdog_fires_on_infinite_loop() {
        let mut b = KernelBuilder::new("inf", 0);
        let top = b.here_label();
        b.imm32(0);
        b.bra(top);
        let k = b.build();
        let cfg = Cfg::build(&k);
        let mut gmem = GlobalMem::new();
        let mut smem = vec![];
        let mut w = WarpState::new(k.num_regs(), 1, 0, [0; 3], 0, 32, 0);
        let mut ex = WarpExec {
            kernel: &k,
            cfg: &cfg,
            params: &[],
            ntid: [32, 1, 1],
            nctaid: [1, 1, 1],
            smid: 0,
            gmem: &mut gmem,
            smem: &mut smem,
            linear: None,
            scratch: None,
            watchdog: 100,
            defer_global_atomics: false,
        };
        let mut hit = false;
        for _ in 0..1000 {
            if ex.step(&mut w).is_err() {
                hit = true;
                break;
            }
        }
        assert!(hit, "watchdog must fire");
    }

    #[test]
    fn collect_vals_captures_sources() {
        let mut b = KernelBuilder::new("vals", 0);
        let x = b.imm32(5);
        b.add(x, Operand::Imm(3));
        let k = b.build();
        let cfg = Cfg::build(&k);
        let mut gmem = GlobalMem::new();
        let mut smem = vec![];
        let mut scratch = OperandVals::default();
        let mut w = WarpState::new(k.num_regs(), 1, 0, [0; 3], 0, 32, 0);
        let mut ex = WarpExec {
            kernel: &k,
            cfg: &cfg,
            params: &[],
            ntid: [32, 1, 1],
            nctaid: [1, 1, 1],
            smid: 0,
            gmem: &mut gmem,
            smem: &mut smem,
            linear: None,
            scratch: Some(&mut scratch),
            watchdog: 100,
            defer_global_atomics: false,
        };
        let _ = ex.step(&mut w).unwrap(); // mov
        let _ = ex.step(&mut w).unwrap(); // add
        assert_eq!(scratch.srcs[0][0], 5);
        assert_eq!(scratch.srcs[1][7], 3);
        assert_eq!(scratch.dst[31], 8);
    }

    // --- lane-vector data path ---------------------------------------------

    /// Execute `instr` once on `w`, as pc 0 of a one-instruction kernel.
    fn step_one(
        instr: Instr,
        w: &mut WarpState,
        ntid: [u32; 3],
        linear: Option<(&LinearMeta, &mut LinearStore, usize)>,
        scratch: Option<&mut OperandVals>,
    ) -> StepInfo {
        let mut k = Kernel::new("one", 0);
        k.instrs.push(instr);
        let cfg = Cfg::build(&k);
        w.stack.last_mut().unwrap().pc = 0;
        let mut gmem = GlobalMem::new();
        let mut smem = vec![];
        let mut ex = WarpExec {
            kernel: &k,
            cfg: &cfg,
            params: &[],
            ntid,
            nctaid: [1, 1, 1],
            smid: 0,
            gmem: &mut gmem,
            smem: &mut smem,
            linear,
            scratch,
            watchdog: 100,
            defer_global_atomics: false,
        };
        ex.step(w).unwrap()
    }

    /// A full 32-lane warp with `r0 = lane`, `r1 = 100 + lane` and the given
    /// predicate words.
    fn lane_warp(preds: &[u32]) -> WarpState {
        let mut w = WarpState::new(4, preds.len(), 0, [0; 3], 0, 32, 0);
        for lane in 0..WARP_SIZE {
            w.set_reg(0, lane, lane as u64);
            w.set_reg(1, lane, 100 + lane as u64);
        }
        w.preds.copy_from_slice(preds);
        w
    }

    const EVEN: u32 = 0x5555_5555;

    #[test]
    fn partial_mask_predicate_write_merges_only_active_bits() {
        let mut w = lane_warp(&[EVEN, 0xF0F0_F0F0]);
        let setp = Instr::new(
            Op::Setp(CmpOp::Lt),
            Ty::B32,
            Some(Dst::Pred(PredReg(1))),
            vec![Reg(0).into(), Operand::Imm(16)],
        )
        .with_guard(PredReg(0), true);
        let info = step_one(setp, &mut w, [32, 1, 1], None, None);
        assert_eq!(info.exec_mask, EVEN);
        let want = (0xF0F0_F0F0 & !EVEN) | (0x0000_FFFF & EVEN);
        assert_eq!(w.preds[1], want, "{:#x} vs {want:#x}", w.preds[1]);
    }

    #[test]
    fn empty_exec_mask_leaves_everything_untouched() {
        let w = lane_warp(&[0]);
        let mut vals = OperandVals {
            srcs: [[7; WARP_SIZE]; 3],
            dst: [9; WARP_SIZE],
            ..OperandVals::default()
        };
        for instr in [
            Instr::new(
                Op::Add,
                Ty::B32,
                Some(Dst::Reg(Reg(2))),
                vec![Reg(0).into(), Reg(1).into()],
            ),
            Instr::new(
                Op::Setp(CmpOp::Eq),
                Ty::B32,
                Some(Dst::Pred(PredReg(0))),
                vec![Reg(0).into(), Operand::Imm(0)],
            ),
        ] {
            let mut w2 = w.clone();
            let info = step_one(
                instr.with_guard(PredReg(0), true),
                &mut w2,
                [32, 1, 1],
                None,
                Some(&mut vals),
            );
            assert_eq!(info.exec_mask, 0);
            assert_eq!((&w2.regs, &w2.preds), (&w.regs, &w.preds));
        }
        assert_eq!(vals.srcs, [[7; WARP_SIZE]; 3]);
        assert_eq!(vals.dst, [9; WARP_SIZE]);
    }

    #[test]
    fn destination_aliasing_a_source_reads_the_old_value() {
        let mut w = lane_warp(&[EVEN]);
        // r0 = r0 * r0 + r0 on the odd lanes only.
        let mad = Instr::new(
            Op::Mad,
            Ty::B64,
            Some(Dst::Reg(Reg(0))),
            vec![Reg(0).into(), Reg(0).into(), Reg(0).into()],
        )
        .with_guard(PredReg(0), false);
        step_one(mad, &mut w, [32, 1, 1], None, None);
        for lane in 0..WARP_SIZE as u64 {
            let want = if lane % 2 == 1 {
                lane * lane + lane
            } else {
                lane
            };
            assert_eq!(w.reg(0, lane as usize), want, "lane {lane}");
        }
        // The guard predicate is also the destination: each active lane
        // writes its own bit from the value read before the instruction.
        let setp = Instr::new(
            Op::Setp(CmpOp::Ge),
            Ty::B32,
            Some(Dst::Pred(PredReg(0))),
            vec![Reg(1).into(), Operand::Imm(116)],
        )
        .with_guard(PredReg(0), true);
        step_one(setp, &mut w, [32, 1, 1], None, None);
        assert_eq!(w.preds[0], EVEN & 0xFFFF_0000);
    }

    #[test]
    fn operand_capture_writes_only_active_lanes() {
        let mut w = lane_warp(&[EVEN]);
        let mut vals = OperandVals {
            srcs: [[7; WARP_SIZE]; 3],
            dst: [9; WARP_SIZE],
            ..OperandVals::default()
        };
        let add = Instr::new(
            Op::Add,
            Ty::B32,
            Some(Dst::Reg(Reg(2))),
            vec![Reg(0).into(), Operand::Imm(5)],
        )
        .with_guard(PredReg(0), true);
        step_one(add, &mut w, [32, 1, 1], None, Some(&mut vals));
        assert_eq!((vals.nsrc, vals.has_dst), (2, true));
        for lane in 0..WARP_SIZE {
            let got = (vals.srcs[0][lane], vals.srcs[1][lane], vals.dst[lane]);
            let want = if EVEN & (1 << lane) != 0 {
                (lane as u64, 5, lane as u64 + 5)
            } else {
                (7, 7, 9)
            };
            assert_eq!(got, want, "lane {lane}");
            assert_eq!(vals.srcs[2][lane], 7, "unread source slot stays put");
        }
    }

    /// Metadata whose whole instruction stream is one phase: `pc 0` falls in
    /// the block-index block when `bidx`, otherwise in the main stream.
    fn one_phase_meta(bidx: bool, n_cr: usize, n_tr: usize, n_lr: usize) -> LinearMeta {
        LinearMeta {
            coef_start: 0,
            tidx_start: 0,
            bidx_start: 0,
            main_start: usize::from(bidx),
            n_cr,
            n_tr,
            n_lr,
            lr_tr: [None; crate::linear::MAX_LR],
        }
    }

    #[test]
    fn br_destination_reads_cr_k_plus_lane() {
        let meta = one_phase_meta(true, 8, 0, 4);
        let mut store = LinearStore::new(&meta, 32, 2);
        for k in 0..8 {
            store.cr[k] = 100 + k as u64;
        }
        let mut w = lane_warp(&[0]);
        let mov = Instr::new(Op::Mov, Ty::B64, Some(Dst::Br(0)), vec![Operand::Cr(2)]);
        let info = step_one(mov, &mut w, [32, 1, 1], Some((&meta, &mut store, 1)), None);
        assert_eq!(
            info.exec_mask, 0b1111,
            "n_lr lanes run the block-index block"
        );
        assert_eq!(store.br[1], vec![102, 103, 104, 105]);
        assert_eq!(store.br[0], vec![0; 4], "other block slots untouched");
    }

    #[test]
    fn linear_destination_runs_lane_by_lane() {
        // Every active lane of `add %cr0, %cr0, 1` reads the value the
        // previous lane wrote, so four block-index lanes add four.
        let meta = one_phase_meta(true, 1, 0, 4);
        let mut store = LinearStore::new(&meta, 32, 1);
        store.cr[0] = 10;
        let mut w = lane_warp(&[0]);
        let add = Instr::new(
            Op::Add,
            Ty::B64,
            Some(Dst::Cr(0)),
            vec![Operand::Cr(0), Operand::Imm(1)],
        );
        step_one(add, &mut w, [32, 1, 1], Some((&meta, &mut store, 0)), None);
        assert_eq!(store.cr[0], 14);
    }

    #[test]
    fn partial_last_warp_reads_tid_and_only_active_linear_lanes() {
        // A 40-thread block: warp 1 has lanes 0..8 (tid.x 32..39). `%tr0`
        // has exactly 40 thread slots, so reading it on an inactive lane
        // (slot >= 40) would index past the store.
        let meta = one_phase_meta(false, 0, 1, 0);
        let mut store = LinearStore::new(&meta, 40, 1);
        for slot in 0..40 {
            store.tr_write(0, slot, 1000 + slot as u64);
        }
        let mut w = WarpState::new(2, 1, 0, [0; 3], 1, 40, 0);
        assert_eq!(w.init_mask, 0xFF);
        let tid = Instr::new(
            Op::Mov,
            Ty::B32,
            Some(Dst::Reg(Reg(0))),
            vec![Operand::Special(Special::Tid(0))],
        );
        let lin = Some((&meta, &mut store, 0));
        step_one(tid, &mut w, [40, 1, 1], lin, None);
        let add = Instr::new(
            Op::Add,
            Ty::B64,
            Some(Dst::Reg(Reg(1))),
            vec![Operand::Tr(0), Reg(0).into()],
        );
        step_one(add, &mut w, [40, 1, 1], Some((&meta, &mut store, 0)), None);
        for lane in 0..WARP_SIZE {
            let (t, sum) = if lane < 8 {
                let t = 32 + lane as u64;
                (t, 1000 + t + t)
            } else {
                (0, 0)
            };
            assert_eq!((w.reg(0, lane), w.reg(1, lane)), (t, sum), "lane {lane}");
        }
    }

    #[test]
    fn meminfo_lines_coalesce() {
        let mi = MemInfo {
            space: MemSpace::Global,
            write: false,
            atomic: false,
            ty: Ty::F32,
            mask: u32::MAX,
            addrs: std::array::from_fn(|l| 0x1000 + 4 * l as u64),
        };
        assert_eq!(
            mi.lines(128).len(),
            1,
            "consecutive f32 accesses fit one line"
        );
        let mi2 = MemInfo {
            addrs: std::array::from_fn(|l| 0x1000 + 128 * l as u64),
            ..mi
        };
        assert_eq!(mi2.lines(128).len(), 32, "strided accesses hit 32 lines");
    }
}
