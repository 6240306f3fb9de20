//! The in-order SMT core model: issue stage, memory-op dispatch, stall
//! classification.
//!
//! Each core issues up to `issue_width` instructions per cycle, at most one
//! per SMT thread, in round-robin thread order (rotating priority). Scalar
//! loads are non-blocking with stall-on-use via a register scoreboard;
//! vector memory operations block the issuing thread (§4.1: gather/scatter
//! "stall the subsequent instructions from the same thread until memory
//! operations for all elements are complete"). The visit that decides
//! whether a thread issues also attributes its cycle to a stall bucket;
//! only barrier waiters wait for the machine's release decision.

use crate::config::MachineConfig;
use crate::exec::{self, Code, Decoded, Gate, StepOutcome};
use crate::thread::{Thread, ThreadStatus};
use glsc_core::{CoreMemUnit, GsuKind, LaneValues, LsuAction, LsuCompletion, MemCompletion};
use glsc_isa::{FenceKind, Instr, Program, Reg, ELEM_BYTES, MAX_SIMD_WIDTH};
use glsc_mem::line_of;

/// Why a running thread failed to issue this cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallKind {
    /// An operand (or WAW destination) is waiting on a memory access.
    OperandMem,
    /// An operand is waiting on a functional-unit result, or the thread is
    /// serialized behind a taken branch / vector op.
    Pipeline,
    /// The write buffer has no free slot for a store.
    StoreBufferFull,
    /// Ready to issue, but the core's issue slots were taken.
    NoSlot,
    /// A fence (or, under a relaxed model, a barrier) is waiting for the
    /// thread's earlier memory traffic to drain (DESIGN.md §17).
    Fence,
}

/// One simulated core: SMT threads plus its memory unit.
///
/// Each cycle the issue stage visits the stepped threads once, issues
/// from those that can, and attributes every visited thread's cycle on
/// the same visit; barrier waiters are attributed after the machine's
/// release decision. A parked thread is not visited: its skipped cycles
/// are attributed in bulk when it is settled (DESIGN.md §8).
#[derive(Clone, Debug)]
pub struct Core {
    // Core id (kept for debugging dumps).
    #[allow(dead_code)]
    pub(crate) id: usize,
    /// Hardware threads.
    pub threads: Vec<Thread>,
    /// LSU + GSU behind the L1 port.
    pub memunit: CoreMemUnit,
    rr: usize,
    /// Halted threads on this core, maintained incrementally at every
    /// status transition so the machine's end-of-run and barrier checks
    /// are O(1) per core instead of a thread rescan per cycle.
    pub(crate) halted: usize,
    /// Threads waiting at the global barrier, maintained incrementally.
    pub(crate) at_barrier: usize,
    /// Whether any thread issued during the most recent
    /// [`issue_stage`](Core::issue_stage). The watchdog reads it as the
    /// machine's progress signal.
    pub(crate) issued_any: bool,
    /// Live threads the stepping loop examines each cycle, bit per
    /// thread. Every live thread is stepped unless parked.
    pub(crate) stepped: u32,
    /// Parked threads: live threads the loop skips until their wake
    /// cycle, a completion that lets them issue or the barrier release
    /// (DESIGN.md §8). The loop settles every parked thread before it
    /// returns, so none is parked in a snapshot, a clone or a report.
    parked: u32,
    /// `(since, wake)` of each parked thread: skipped from cycle `since`,
    /// due back at `wake` (`u64::MAX` until an event).
    park: Vec<(u64, u64)>,
    /// The earliest `wake` among parked threads (`u64::MAX` if none).
    pub(crate) next_wake: u64,
    /// Stepped threads found at the barrier by this cycle's issue stage,
    /// arrivals included. Their cycle is attributed once the machine has
    /// decided whether the barrier releases; empty between cycles.
    pub(crate) waiters: u32,
    /// The waiters whose `barrier` issued this cycle inside a sync region.
    sync_arrivals: u32,
}

/// A point-in-time copy of one [`Core`], captured by [`Core::snapshot`]
/// as part of a [`crate::MachineSnapshot`].
#[derive(Clone, Debug)]
pub(crate) struct CoreSnapshot {
    threads: Vec<Thread>,
    memunit: glsc_core::CoreMemUnitSnapshot,
    rr: usize,
    halted: usize,
    at_barrier: usize,
    issued_any: bool,
}

impl CoreSnapshot {
    /// Whether the captured memory unit was fully drained.
    pub(crate) fn memunit_is_idle(&self) -> bool {
        self.memunit.is_idle()
    }
}

impl Core {
    /// Creates core `id` per the machine configuration.
    pub fn new(id: usize, cfg: &MachineConfig) -> Self {
        let n = cfg.threads_per_core;
        Self {
            id,
            threads: (0..n).map(|_| Thread::new(cfg.simd_width)).collect(),
            memunit: CoreMemUnit::with_order(
                id,
                n,
                cfg.glsc,
                cfg.mem.memory_order,
                cfg.mem.bank_interleave(),
            ),
            rr: 0,
            halted: 0,
            at_barrier: 0,
            issued_any: false,
            stepped: (1 << n) - 1,
            parked: 0,
            park: vec![(0, 0); n],
            next_wake: u64::MAX,
            waiters: 0,
            sync_arrivals: 0,
        }
    }

    /// Resets the incremental status counters and the park state after
    /// the machine rebuilds every thread (program load).
    pub(crate) fn reset_status_counts(&mut self) {
        self.halted = 0;
        self.at_barrier = 0;
        self.step_live();
    }

    /// Applies memory completions to thread state at cycle `now`, draining
    /// `comps` so the caller can reuse the buffer next cycle. A parked
    /// recipient is settled first, and parks again from `now` while it
    /// still cannot issue: an operand's ready cycle still ahead, vector
    /// line parts still outstanding, or the barrier still closed.
    pub(crate) fn apply_completions(
        &mut self,
        code: &Code,
        now: u64,
        comps: &mut Vec<MemCompletion>,
    ) {
        for comp in comps.drain(..) {
            let tid = match &comp {
                MemCompletion::Lsu(LsuCompletion::StoreDrained { .. }) => continue,
                MemCompletion::Lsu(
                    LsuCompletion::ScalarLoad { tid, .. }
                    | LsuCompletion::ScalarSc { tid, .. }
                    | LsuCompletion::VectorPart { tid, .. },
                ) => *tid,
                MemCompletion::Gsu(c) => c.tid,
            };
            let t = tid as usize;
            let parked = self.parked & 1 << t != 0;
            if parked {
                self.unpark(t, code, now);
            }
            match comp {
                MemCompletion::Lsu(LsuCompletion::ScalarLoad {
                    tid,
                    rd,
                    value,
                    done,
                }) => {
                    self.threads[tid as usize].deliver_mem(rd, value as u64, done);
                }
                MemCompletion::Lsu(LsuCompletion::ScalarSc { tid, rd, ok, done }) => {
                    let th = &mut self.threads[tid as usize];
                    th.stats.elems_completed += ok as u64;
                    th.deliver_mem(rd, ok as u64, done);
                }
                MemCompletion::Lsu(LsuCompletion::StoreDrained { .. }) => {}
                MemCompletion::Lsu(LsuCompletion::VectorPart {
                    tid,
                    lane_values,
                    done,
                }) => {
                    let th = &mut self.threads[tid as usize];
                    let ThreadStatus::BlockedVector {
                        pending_parts,
                        done: acc_done,
                        vd,
                        lanes,
                        sync: _,
                    } = &mut th.status
                    else {
                        panic!("vector part for thread not blocked on a vector op");
                    };
                    *pending_parts -= 1;
                    *acc_done = (*acc_done).max(done);
                    lanes.merge(&lane_values);
                    if *pending_parts == 0 {
                        let (vd, ready, lanes) = (*vd, *acc_done, *lanes);
                        if let Some(vd) = vd {
                            for (lane, value) in lanes.iter() {
                                th.arch.set_vlane(glsc_isa::VReg::new(vd), lane, value);
                            }
                        }
                        th.status = ThreadStatus::Running;
                        th.next_issue_at = th.next_issue_at.max(ready);
                    }
                }
                MemCompletion::Gsu(c) => {
                    let th = &mut self.threads[c.tid as usize];
                    debug_assert!(matches!(th.status, ThreadStatus::BlockedGsu { .. }));
                    if let Some(vd) = c.vd {
                        for (lane, value) in c.lane_values.iter() {
                            th.arch.set_vlane(glsc_isa::VReg::new(vd), lane, value);
                        }
                    }
                    if let Some(fd) = c.fd {
                        th.arch.set_mreg(glsc_isa::MReg::new(fd), c.mask);
                        // A success-mask without a data destination is a
                        // vscattercond: its set bits are committed elements
                        // (gatherlink carries both fd and vd and commits
                        // nothing).
                        if c.vd.is_none() {
                            th.stats.elems_completed += u64::from(c.mask.count_ones());
                        }
                    }
                    th.status = ThreadStatus::Running;
                    th.next_issue_at = th.next_issue_at.max(c.done);
                }
            }
            if parked {
                let th = &self.threads[t];
                let wake = match th.status {
                    ThreadStatus::Running => earliest_issue(th, code),
                    _ => u64::MAX,
                };
                if wake > now {
                    self.park_from(t, now, wake);
                }
            }
        }
    }

    /// Returns `None` when thread `t`, whose next instruction is `d`, can
    /// issue now, or the stall reason.
    fn check_stall(&self, t: usize, d: Option<&Decoded>, now: u64) -> Option<StallKind> {
        let th = &self.threads[t];
        if now < th.next_issue_at {
            return Some(StallKind::Pipeline);
        }
        let d = d?; // falls off the end: issue path halts it
        for r in d.regs() {
            if !th.reg_is_ready(*r, now) {
                return Some(if th.reg_from_mem[r.index()] {
                    StallKind::OperandMem
                } else {
                    StallKind::Pipeline
                });
            }
        }
        // Ordering gates (DESIGN.md §17). Under sequential consistency the
        // write buffer is never used, so the barrier and fence conditions
        // are vacuously false and the SC timing is untouched.
        let tid = t as u8;
        match d.gate {
            Gate::Free => None,
            Gate::Store => {
                (!self.memunit.can_accept_store(tid)).then_some(StallKind::StoreBufferFull)
            }
            // A barrier is a synchronization point: the thread's buffered
            // stores must be globally visible before it reports arrival.
            Gate::Barrier => {
                (self.memunit.lsu_buffered_stores(tid) > 0).then_some(StallKind::Fence)
            }
            Gate::Fence(kind) => {
                let pending = match kind {
                    FenceKind::Full => self.memunit.lsu_thread_pending(tid),
                    FenceKind::Acquire => self.memunit.lsu_thread_entries(tid),
                    FenceKind::Release => self.memunit.lsu_buffered_stores(tid),
                };
                (pending > 0).then_some(StallKind::Fence)
            }
        }
    }

    /// The issue stage for cycle `now`: selects up to `issue_width` ready
    /// threads (round-robin), executes one instruction each, and
    /// attributes the cycle of every stepped thread on the same visit
    /// (Fig. 5(a) sync attribution and Table 4 memory-stall accounting),
    /// by its status after issue first and then its issue outcome. Only
    /// threads whose bit is set in `mask` may issue; the others are
    /// accounted as losing the issue slot (the litmus schedule controller
    /// pins the machine to an explicit interleaving this way).
    ///
    /// A thread that halts leaves the stepped set. A barrier waiter, one
    /// whose `barrier` issued this cycle included, joins
    /// [`waiters`](Self::waiters): whether the barrier releases is known
    /// only after every core's issue stage.
    ///
    /// With `park` set, a thread that cannot act before a known cycle or
    /// event parks from `now + 1` (DESIGN.md §8): a Running thread whose
    /// next instruction cannot issue before its earliest issue cycle,
    /// `u64::MAX` while an operand waits on a queued access, whether it
    /// issued this cycle or was held by the issue redirect or the
    /// scoreboard; a thread blocked on a vector or GSU op until the
    /// completion that frees it. A thread that lost its slot or waits on
    /// a memory-unit gate stays stepped.
    pub(crate) fn issue_stage(
        &mut self,
        code: &Code,
        cfg: &MachineConfig,
        now: u64,
        mask: u32,
        park: bool,
    ) {
        let mut slots = cfg.issue_width;
        self.issued_any = false;
        // The stepped threads in round-robin order from `rr`, wrapping,
        // without a division per thread.
        let high = u32::MAX << self.rr;
        let order = [self.stepped & high, self.stepped & !high];
        self.rotate_rr();
        for part in order {
            for t in bits(part) {
                let visit = (self.threads[t].status == ThreadStatus::Running)
                    .then(|| self.try_issue(t, code, cfg, now, mask & 1 << t != 0, &mut slots));
                let th = &mut self.threads[t];
                let wake = match th.status {
                    ThreadStatus::Halted => {
                        self.stepped &= !(1 << t);
                        continue;
                    }
                    ThreadStatus::AtBarrier => {
                        self.waiters |= 1 << t;
                        if visit == Some((None, true)) {
                            self.sync_arrivals |= 1 << t;
                        }
                        continue;
                    }
                    ThreadStatus::BlockedGsu { sync }
                    | ThreadStatus::BlockedVector { sync, .. } => {
                        th.stats.active_cycles += 1;
                        th.stats.mem_stall_cycles += 1;
                        th.stats.sync_cycles += u64::from(sync);
                        u64::MAX
                    }
                    ThreadStatus::Running => {
                        let (stall, sync) = visit.expect("a Running thread was Running at issue");
                        th.stats.active_cycles += 1;
                        th.stats.sync_cycles += u64::from(sync);
                        match stall {
                            None => {}
                            Some(StallKind::Pipeline) => th.stats.compute_stall_cycles += 1,
                            Some(StallKind::OperandMem) => th.stats.mem_stall_cycles += 1,
                            Some(StallKind::StoreBufferFull | StallKind::Fence) => {
                                th.stats.mem_stall_cycles += 1;
                                continue;
                            }
                            Some(StallKind::NoSlot) => {
                                th.stats.issue_stall_cycles += 1;
                                continue;
                            }
                        }
                        earliest_issue(th, code)
                    }
                };
                if park && wake > now + 1 {
                    self.park_from(t, now + 1, wake);
                }
            }
        }
    }

    /// Issues Running thread `t`'s next instruction if it may issue
    /// (`may_issue`, its bit of the issue mask), passes
    /// [`check_stall`](Self::check_stall) and finds a slot left. Returns
    /// the stall reason (`None`: issued) and whether the instruction is in
    /// a sync region; a masked-out thread's stall never counts as sync.
    fn try_issue(
        &mut self,
        t: usize,
        code: &Code,
        cfg: &MachineConfig,
        now: u64,
        may_issue: bool,
        slots: &mut usize,
    ) -> (Option<StallKind>, bool) {
        if !may_issue {
            return (Some(StallKind::NoSlot), false);
        }
        let d = code.at(self.threads[t].arch.pc);
        let sync = d.is_some_and(|d| d.sync);
        let stall = match self.check_stall(t, d, now) {
            None if *slots == 0 => Some(StallKind::NoSlot),
            None => {
                *slots -= 1;
                self.issued_any = true;
                self.issue_one(t, &code.program, cfg, now, sync);
                None
            }
            stall => stall,
        };
        (stall, sync)
    }

    /// Advances the round-robin start by one cycle.
    pub(crate) fn rotate_rr(&mut self) {
        self.rr += 1;
        if self.rr == self.threads.len() {
            self.rr = 0;
        }
    }

    /// Advances the round-robin start by `cycles` cycles at once. It adds
    /// `cycles` mod `n` one bit of `cycles` at a time, doubling 2^k mod
    /// `n` as it goes, so every wrap is a comparison rather than a
    /// division.
    pub(crate) fn skip_rr(&mut self, cycles: u64) {
        let n = self.threads.len();
        let mut pow = usize::from(n > 1); // 2^k mod n
        let mut rest = cycles;
        while rest != 0 {
            if rest & 1 != 0 {
                self.rr += pow;
                if self.rr >= n {
                    self.rr -= n;
                }
            }
            pow += pow;
            if pow >= n {
                pow -= n;
            }
            rest >>= 1;
        }
    }

    /// Executes one instruction for thread `t` (all checks already passed).
    fn issue_one(
        &mut self,
        t: usize,
        program: &Program,
        cfg: &MachineConfig,
        now: u64,
        sync: bool,
    ) {
        let tid = t as u8;
        let width = cfg.simd_width;
        let pc = self.threads[t].arch.pc;
        let Some(instr) = program.fetch(pc) else {
            self.threads[t].status = ThreadStatus::Halted;
            self.halted += 1;
            return;
        };
        let instr = *instr;
        {
            let th = &mut self.threads[t];
            th.stats.instructions += 1;
            if sync {
                th.stats.sync_instructions += 1;
            }
        }
        match instr {
            Instr::Load { rd, base, offset } | Instr::LoadLinked { rd, base, offset } => {
                let addr = self.threads[t].arch.reg(base).wrapping_add(offset as u64);
                let action = if matches!(instr, Instr::Load { .. }) {
                    LsuAction::LoadTo {
                        rd: rd.index() as u8,
                    }
                } else {
                    LsuAction::LlTo {
                        rd: rd.index() as u8,
                    }
                };
                self.memunit
                    .lsu_push(glsc_core::LsuEntry { tid, addr, action }, now);
                let th = &mut self.threads[t];
                th.mark_pending_mem(rd);
                th.arch.pc += 1;
                th.next_issue_at = now + 1;
            }
            Instr::Store { rs, base, offset } => {
                let th = &self.threads[t];
                let addr = th.arch.reg(base).wrapping_add(offset as u64);
                let value = th.arch.reg(rs) as u32;
                self.memunit.lsu_push(
                    glsc_core::LsuEntry {
                        tid,
                        addr,
                        action: LsuAction::StoreVal { value },
                    },
                    now,
                );
                let th = &mut self.threads[t];
                th.arch.pc += 1;
                th.next_issue_at = now + 1;
            }
            Instr::StoreCond {
                rd,
                rs,
                base,
                offset,
            } => {
                let th = &self.threads[t];
                let addr = th.arch.reg(base).wrapping_add(offset as u64);
                let value = th.arch.reg(rs) as u32;
                self.memunit.lsu_push(
                    glsc_core::LsuEntry {
                        tid,
                        addr,
                        action: LsuAction::ScVal {
                            rd: rd.index() as u8,
                            value,
                        },
                    },
                    now,
                );
                let th = &mut self.threads[t];
                th.mark_pending_mem(rd);
                th.arch.pc += 1;
                th.next_issue_at = now + 1;
            }
            Instr::VLoad {
                vd,
                base,
                offset,
                mask,
            }
            | Instr::VStore {
                vs: vd,
                base,
                offset,
                mask,
            } => {
                let is_load = matches!(instr, Instr::VLoad { .. });
                let th = &self.threads[t];
                let m = mask.map_or(th.arch.full_mask(), |f| th.arch.mreg(f));
                let base_addr = th.arch.reg(base).wrapping_add(offset as u64);
                if !is_load {
                    self.memunit.lsu_stage_vector_store(tid, th.arch.vreg(vd));
                }
                let mut parts = 0;
                for (addr, lanes) in line_parts(base_addr, m, cfg.mem.line_bytes) {
                    let action = if is_load {
                        LsuAction::VLoadLanes { lanes }
                    } else {
                        LsuAction::VStoreLanes { lanes }
                    };
                    self.memunit
                        .lsu_push(glsc_core::LsuEntry { tid, addr, action }, now);
                    parts += 1;
                }
                let th = &mut self.threads[t];
                th.arch.pc += 1;
                if parts == 0 {
                    th.next_issue_at = now + 1;
                    return;
                }
                th.status = ThreadStatus::BlockedVector {
                    pending_parts: parts,
                    done: 0,
                    vd: is_load.then_some(vd.index() as u8),
                    lanes: LaneValues::default(),
                    sync,
                };
            }
            Instr::VGather {
                vd,
                base,
                vidx,
                mask,
            } => {
                let (elems, n) = self.gsu_elems(
                    t,
                    base,
                    vidx,
                    mask.map(|f| self.threads[t].arch.mreg(f)),
                    None,
                    width,
                );
                self.start_gsu(
                    t,
                    GsuKind::Gather {
                        vd: vd.index() as u8,
                    },
                    &elems[..n],
                    width,
                    sync,
                );
            }
            Instr::VScatter {
                vs,
                base,
                vidx,
                mask,
            } => {
                let (elems, n) = self.gsu_elems(
                    t,
                    base,
                    vidx,
                    mask.map(|f| self.threads[t].arch.mreg(f)),
                    Some(vs),
                    width,
                );
                self.start_gsu(t, GsuKind::Scatter, &elems[..n], width, sync);
            }
            Instr::VGatherLink {
                fd,
                vd,
                base,
                vidx,
                fsrc,
            } => {
                let m = self.threads[t].arch.mreg(fsrc);
                let (elems, n) = self.gsu_elems(t, base, vidx, Some(m), None, width);
                self.start_gsu(
                    t,
                    GsuKind::GatherLink {
                        fd: fd.index() as u8,
                        vd: vd.index() as u8,
                    },
                    &elems[..n],
                    width,
                    sync,
                );
            }
            Instr::VScatterCond {
                fd,
                vs,
                base,
                vidx,
                fsrc,
            } => {
                let m = self.threads[t].arch.mreg(fsrc);
                let (elems, n) = self.gsu_elems(t, base, vidx, Some(m), Some(vs), width);
                self.start_gsu(
                    t,
                    GsuKind::ScatterCond {
                        fd: fd.index() as u8,
                    },
                    &elems[..n],
                    width,
                    sync,
                );
            }
            Instr::Fence { .. } => {
                // check_stall held the fence until its drain condition
                // cleared; retiring it is a one-cycle no-op.
                self.memunit.note_fence();
                let th = &mut self.threads[t];
                th.arch.pc += 1;
                th.next_issue_at = now + 1;
            }
            _ => {
                let th = &mut self.threads[t];
                let outcome = exec::step_compute(&mut th.arch, &instr, program, &cfg.lat);
                match outcome {
                    StepOutcome::Compute {
                        dst,
                        latency,
                        serialize,
                    } => {
                        if let Some(rd) = dst {
                            th.mark_alu(rd, now + latency);
                        }
                        th.next_issue_at = if serialize { now + latency } else { now + 1 };
                    }
                    StepOutcome::Taken => {
                        th.next_issue_at = now + 1 + cfg.branch_penalty;
                    }
                    StepOutcome::NotTaken => {
                        th.next_issue_at = now + 1;
                    }
                    StepOutcome::Halt => {
                        th.status = ThreadStatus::Halted;
                        self.halted += 1;
                    }
                    StepOutcome::Barrier => {
                        th.status = ThreadStatus::AtBarrier;
                        self.at_barrier += 1;
                    }
                    StepOutcome::Memory => unreachable!("memory ops handled above"),
                }
            }
        }
    }

    /// Builds the GSU element list `(lane, address, value)` for the active
    /// lanes of an indexed memory instruction, in a fixed array: its first
    /// `n` entries, with `n` returned beside it.
    fn gsu_elems(
        &self,
        t: usize,
        base: Reg,
        vidx: glsc_isa::VReg,
        mask: Option<u32>,
        values_from: Option<glsc_isa::VReg>,
        width: usize,
    ) -> ([(u8, u64, u32); MAX_SIMD_WIDTH], usize) {
        let th = &self.threads[t];
        let m = mask.unwrap_or_else(|| th.arch.full_mask());
        let base_addr = th.arch.reg(base);
        let idx = th.arch.vreg(vidx);
        let vals = values_from.map(|v| th.arch.vreg(v));
        let mut elems = [(0, 0, 0); MAX_SIMD_WIDTH];
        let mut n = 0;
        for lane in (0..width).filter(|lane| m & (1 << lane) != 0) {
            let addr = base_addr.wrapping_add(ELEM_BYTES * idx[lane] as u64);
            let value = vals.map_or(0, |v| v[lane]);
            elems[n] = (lane as u8, addr, value);
            n += 1;
        }
        (elems, n)
    }

    fn start_gsu(
        &mut self,
        t: usize,
        kind: GsuKind,
        elems: &[(u8, u64, u32)],
        width: usize,
        sync: bool,
    ) {
        debug_assert!(
            !self.memunit.gsu_busy(t as u8),
            "thread issued while GSU busy"
        );
        self.memunit.gsu_start(t as u8, kind, elems, width);
        let th = &mut self.threads[t];
        th.arch.pc += 1;
        th.status = ThreadStatus::BlockedGsu { sync };
    }

    /// Whether every thread on this core has halted. Debug builds first
    /// check the incremental counts and masks against a recount.
    pub fn all_halted(&self) -> bool {
        debug_assert_eq!(
            (self.halted, self.at_barrier, self.stepped | self.parked),
            self.recount(),
            "incremental halted/barrier counts and live-thread mask"
        );
        debug_assert_eq!(self.stepped & self.parked, 0, "thread stepped and parked");
        self.halted == self.threads.len()
    }

    /// Halted threads, barrier waiters and the live-thread mask, counted
    /// from the thread statuses.
    fn recount(&self) -> (usize, usize, u32) {
        let mut counts = (0, 0, 0);
        for (t, th) in self.threads.iter().enumerate() {
            match th.status {
                ThreadStatus::Halted => counts.0 += 1,
                ThreadStatus::AtBarrier => counts.1 += 1,
                _ => {}
            }
            if !th.is_halted() {
                counts.2 |= 1 << t;
            }
        }
        counts
    }

    /// Releases every thread waiting at the barrier (the machine decided
    /// the barrier is complete at cycle `now`, after the issue stage);
    /// they may issue again from `now + 1`. A parked waiter is settled
    /// first. The release cycle is neutral (active, in no stall bucket),
    /// except that a thread whose `barrier` issued this cycle keeps its
    /// sync attribution.
    pub(crate) fn release_barrier_threads(&mut self, code: &Code, now: u64) {
        for t in 0..self.threads.len() {
            if self.threads[t].status == ThreadStatus::AtBarrier {
                if self.parked & 1 << t != 0 {
                    self.unpark(t, code, now);
                }
                let th = &mut self.threads[t];
                th.status = ThreadStatus::Running;
                th.next_issue_at = now + 1;
                th.stats.active_cycles += 1;
                th.stats.sync_cycles += u64::from(self.sync_arrivals >> t & 1);
            }
        }
        self.at_barrier = 0;
        self.waiters = 0;
        self.sync_arrivals = 0;
    }

    /// Attributes cycle `now` of the [`waiters`](Self::waiters) when the
    /// barrier stays closed: a barrier cycle each, after which, with
    /// `park` set, they park until the release.
    pub(crate) fn hold_barrier_threads(&mut self, now: u64, park: bool) {
        for t in bits(std::mem::take(&mut self.waiters)) {
            let stats = &mut self.threads[t].stats;
            stats.active_cycles += 1;
            stats.barrier_cycles += 1;
            stats.sync_cycles += 1;
            if park {
                self.park_from(t, now + 1, u64::MAX);
            }
        }
        self.sync_arrivals = 0;
    }

    /// Unparks every parked thread whose wake cycle has come (`now` is at
    /// least [`next_wake`](Self::next_wake)) and recomputes the latter.
    pub(crate) fn wake_due(&mut self, code: &Code, now: u64) {
        let mut next = u64::MAX;
        for t in bits(self.parked) {
            let wake = self.park[t].1;
            if wake <= now {
                self.unpark(t, code, now);
            } else {
                next = next.min(wake);
            }
        }
        self.next_wake = next;
    }

    /// Unparks every parked thread at cycle `now`, leaving the core
    /// exactly as single-stepping would have.
    pub(crate) fn unpark_all(&mut self, code: &Code, now: u64) {
        for t in bits(self.parked) {
            self.unpark(t, code, now);
        }
        self.next_wake = u64::MAX;
    }

    /// Parks thread `t` (stepped, or parked and just settled through
    /// `since`): skipped from cycle `since`, due back at `wake`.
    fn park_from(&mut self, t: usize, since: u64, wake: u64) {
        self.stepped &= !(1 << t);
        self.parked |= 1 << t;
        self.park[t] = (since, wake);
        self.next_wake = self.next_wake.min(wake);
    }

    /// Returns parked thread `t` to the stepped set at cycle `now`, first
    /// accounting the cycles it was parked. `next_wake` may go stale
    /// (early), which only costs [`wake_due`](Self::wake_due) a rescan.
    fn unpark(&mut self, t: usize, code: &Code, now: u64) {
        let (since, _) = self.park[t];
        self.attribute_window(t, code, since, now);
        self.parked &= !(1 << t);
        self.stepped |= 1 << t;
    }

    /// Steps every live thread and parks none: the park state of freshly
    /// loaded or restored threads.
    fn step_live(&mut self) {
        self.stepped = (0..self.threads.len())
            .filter(|&t| !self.threads[t].is_halted())
            .fold(0, |mask, t| mask | 1 << t);
        self.parked = 0;
        self.next_wake = u64::MAX;
    }

    /// Captures a point-in-time copy of this core: every thread (arch
    /// registers, vector/mask registers, status, scoreboard, statistics),
    /// the round-robin pointer, the incremental halted/barrier counters,
    /// and the memory unit's in-flight state. No thread is parked here:
    /// the stepping loop settles every thread before it returns.
    pub(crate) fn snapshot(&self) -> CoreSnapshot {
        debug_assert_eq!(self.parked, 0, "snapshot of a parked thread");
        CoreSnapshot {
            threads: self.threads.clone(),
            memunit: self.memunit.snapshot(),
            rr: self.rr,
            halted: self.halted,
            at_barrier: self.at_barrier,
            issued_any: self.issued_any,
        }
    }

    /// Replaces this core's state with the snapshot's (same-shape core;
    /// validated by `Machine::restore`).
    pub(crate) fn restore(&mut self, snap: &CoreSnapshot) {
        self.threads = snap.threads.clone();
        self.memunit.restore(&snap.memunit);
        self.rr = snap.rr;
        self.halted = snap.halted;
        self.at_barrier = snap.at_barrier;
        self.issued_any = snap.issued_any;
        self.step_live();
    }

    /// Bulk stall attribution of parked thread `t` for the cycles
    /// `[from, to)`, cycle-for-cycle identical to visiting it in
    /// `issue_stage` (and, at the barrier, `hold_barrier_threads`). A
    /// parked thread's state is frozen (it is settled before a completion
    /// or the barrier release touches it) and `to` is at most its wake
    /// cycle, so its per-cycle classification is piecewise constant with
    /// breakpoints at `next_issue_at` and the scoreboard ready cycles.
    fn attribute_window(&mut self, t: usize, code: &Code, from: u64, to: u64) {
        let w = to - from;
        let th = &mut self.threads[t];
        th.stats.active_cycles += w;
        match &th.status {
            ThreadStatus::Halted => unreachable!("a halted thread is never parked"),
            ThreadStatus::AtBarrier => {
                th.stats.barrier_cycles += w;
                th.stats.sync_cycles += w;
            }
            ThreadStatus::BlockedGsu { sync } | ThreadStatus::BlockedVector { sync, .. } => {
                th.stats.mem_stall_cycles += w;
                if *sync {
                    th.stats.sync_cycles += w;
                }
            }
            ThreadStatus::Running => {
                let d = code.at(th.arch.pc);
                let sync = d.is_some_and(|d| d.sync);
                let regs = d.map_or(&[][..], Decoded::regs);
                let mut c = from;
                while c < to {
                    // Same priority order as check_stall: the issue
                    // redirect first, then the first unready register
                    // (source operands before the destination).
                    let (is_mem, seg_end) = if c < th.next_issue_at {
                        (false, th.next_issue_at.min(to))
                    } else {
                        let first_unready = regs
                            .iter()
                            .find(|r| th.reg_ready[r.index()] > c)
                            .expect("thread ready before its wake cycle");
                        let i = first_unready.index();
                        (th.reg_from_mem[i], th.reg_ready[i].min(to))
                    };
                    let seg = seg_end - c;
                    if is_mem {
                        th.stats.mem_stall_cycles += seg;
                    } else {
                        th.stats.compute_stall_cycles += seg;
                    }
                    if sync {
                        th.stats.sync_cycles += seg;
                    }
                    c = seg_end;
                }
            }
        }
    }
}

/// The line parts of a unit-stride vector access from `base` over the
/// lanes of `mask`, in line order: each part's lowest element address and
/// its lanes. Consecutive lanes are consecutive elements, so each line
/// holds a run of the active lanes.
fn line_parts(base: u64, mask: u32, line_bytes: u64) -> impl Iterator<Item = (u64, u32)> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        let addr = base + ELEM_BYTES * u64::from(rest.trailing_zeros());
        // The first lane whose element starts past this part's line.
        let end = (line_of(addr, line_bytes) + line_bytes - base).div_ceil(ELEM_BYTES);
        let lanes = rest & if end < 32 { (1 << end) - 1 } else { u32::MAX };
        rest &= !lanes;
        (lanes != 0).then_some((addr, lanes))
    })
}

/// The set bits of `mask`, lowest first.
fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let t = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (t < 32).then_some(t)
    })
}

/// The earliest cycle at which Running thread `th` passes
/// `check_stall`'s issue-redirect and scoreboard checks if no completion
/// arrives first: `u64::MAX` while an operand waits on a queued access.
fn earliest_issue(th: &Thread, code: &Code) -> u64 {
    let regs = code.at(th.arch.pc).map_or(&[][..], Decoded::regs);
    regs.iter().fold(th.next_issue_at, |earliest, r| {
        earliest.max(th.reg_ready[r.index()])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_parts_split_at_line_boundaries() {
        let parts = |base, mask| line_parts(base, mask, 64).collect::<Vec<_>>();
        // 32 lanes from 8 bytes into a line: 14, 16 and 2 lanes.
        assert_eq!(
            parts(0x1008, u32::MAX),
            vec![
                (0x1008, 0x3fff),
                (0x1040, 0x3fff_c000),
                (0x1080, 0xc000_0000)
            ]
        );
        // A part starts at its lowest active lane; masked lanes leave gaps.
        assert_eq!(
            parts(0x2038, !(1 | 1 << 17 | 1 << 31)),
            vec![(0x203c, 0b10), (0x2040, 0x0001_fffc), (0x2080, 0x7ffc_0000)]
        );
        // An element belongs to the line of its first byte.
        assert_eq!(
            parts(0x1006, 0xc000),
            vec![(0x103e, 0x4000), (0x1042, 0x8000)]
        );
        assert_eq!(parts(0x1000, 0), vec![]);
    }

    #[test]
    fn skip_rr_matches_one_rotation_per_cycle() {
        for n in 1..=8 {
            let mut core = Core::new(0, &MachineConfig::paper(1, n, 4));
            for start in 0..n {
                for cycles in [0, 1, 2, 7, 8, 9, 280, 841, 1 << 40, u64::MAX] {
                    core.rr = start;
                    core.skip_rr(cycles);
                    let want = (start as u64 + cycles % n as u64) % n as u64;
                    assert_eq!(core.rr as u64, want, "n {n}, rr {start}, {cycles} cycles");
                }
            }
        }
    }
}

// ---- durable-snapshot serialization --------------------------------------

glsc_wire::wire_struct!(CoreSnapshot {
    threads,
    memunit,
    rr,
    halted,
    at_barrier,
    issued_any,
});
