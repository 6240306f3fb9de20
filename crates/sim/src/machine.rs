//! The whole-machine cycle loop: cores, shared memory system, barriers.

use crate::config::{ConfigError, MachineConfig};
use crate::cpu::{Core, CoreSnapshot};
use crate::exec::Code;
use crate::report::{RunReport, StallTotals};
use glsc_core::MemCompletion;
use glsc_isa::{Program, Reg};
use glsc_mem::MemorySystem;
use glsc_wire::WireError;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Simulation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// No program was loaded before [`Machine::run`].
    NoProgram,
    /// The configuration was rejected (from [`Machine::try_new`]).
    InvalidConfig(ConfigError),
    /// The cycle budget was exhausted (a non-terminating simulated
    /// program — note a GLSC retry storm lands here, not in
    /// [`SimError::Livelock`], because retries keep issuing); carries the
    /// per-thread program counters and stall totals for diagnosis.
    MaxCyclesExceeded {
        /// Cycle at which the run aborted.
        cycle: u64,
        /// `(global thread id, pc)` of every non-halted thread.
        stuck: Vec<(usize, usize)>,
        /// Machine-wide stall-bucket totals at abort.
        stalls: StallTotals,
    },
    /// The forward-progress watchdog fired: no thread in the machine
    /// issued an instruction for a whole watchdog window (see
    /// [`MachineConfig::watchdog_window`]). Carries a diagnostic dump.
    Livelock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// The configured window that elapsed without progress.
        window: u64,
        /// `(global thread id, pc)` of every non-halted thread.
        stuck: Vec<(usize, usize)>,
        /// Machine-wide stall-bucket totals at abort.
        stalls: StallTotals,
        /// Every live reservation as `(core, line, thread mask)`.
        reservations: Vec<(usize, u64, u8)>,
    },
    /// The starvation detector fired: a thread's run of *consecutive*
    /// store-conditional failures reached the configured threshold (see
    /// [`MachineConfig::starvation_threshold`]). This is the condition the
    /// livelock watchdog is structurally blind to — a retry storm keeps
    /// issuing instructions — and the reason the arbitration policies of
    /// DESIGN.md §12 exist. Carries the full per-thread failure census;
    /// the rendered message includes Jain's fairness index over it.
    Starvation {
        /// Cycle at which the detector fired.
        cycle: u64,
        /// Global id of the starved thread (the longest current streak;
        /// ties break toward the lowest id).
        gid: usize,
        /// The starved thread's consecutive-failure streak.
        streak: u64,
        /// Total SC failures per global thread id (Jain's index over
        /// these is rendered in the Display message).
        failures: Vec<u64>,
        /// Every live reservation as `(core, line, thread mask)` — the
        /// competitors the starved thread keeps losing to.
        reservations: Vec<(usize, u64, u8)>,
    },
    /// A periodic coherence check (see
    /// [`MachineConfig::invariant_check_period`]) found the memory system
    /// in an inconsistent state.
    InvariantViolation {
        /// Cycle of the failing check.
        cycle: u64,
        /// The violated invariant.
        violation: glsc_mem::InvariantViolation,
    },
    /// The vector-clock atomicity oracle (DESIGN.md §17) observed a
    /// foreign write landing inside a GLSC atomic region that nonetheless
    /// committed. Only produced when an oracle is installed on the memory
    /// system ([`glsc_mem::MemorySystem::install_oracle`]); the default
    /// machine never raises it.
    AtomicityViolation {
        /// Cycle at which the violating commit was observed.
        cycle: u64,
        /// The oracle's account of the broken region.
        violation: glsc_mem::AtomicityViolation,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoProgram => write!(f, "no program loaded"),
            SimError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            SimError::MaxCyclesExceeded {
                cycle,
                stuck,
                stalls,
            } => {
                write!(
                    f,
                    "exceeded max cycles at {cycle}; non-halted threads at pcs {stuck:?}; \
                     stall totals: {stalls}"
                )
            }
            SimError::Livelock {
                cycle,
                window,
                stuck,
                stalls,
                reservations,
            } => {
                write!(
                    f,
                    "livelock: no instruction issued for {window} cycles (aborted at cycle \
                     {cycle}); non-halted threads at pcs {stuck:?}; stall totals: {stalls}; \
                     live reservations (core, line, mask): {reservations:x?}"
                )
            }
            SimError::Starvation {
                cycle,
                gid,
                streak,
                failures,
                reservations,
            } => {
                write!(
                    f,
                    "starvation: thread {gid} failed {streak} consecutive store-conditionals \
                     (aborted at cycle {cycle}); per-thread SC failures {failures:?} \
                     (Jain fairness {:.3}); live reservations (core, line, mask): \
                     {reservations:x?}",
                    crate::report::jain_fairness(failures)
                )
            }
            SimError::InvariantViolation { cycle, violation } => {
                write!(
                    f,
                    "coherence invariant violated at cycle {cycle}: {violation}"
                )
            }
            SimError::AtomicityViolation { cycle, violation } => {
                write!(f, "atomicity violated at cycle {cycle}: {violation}")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::InvalidConfig(e) => Some(e),
            SimError::InvariantViolation { violation, .. } => Some(violation),
            SimError::AtomicityViolation { violation, .. } => Some(violation),
            _ => None,
        }
    }
}

/// The simulated chip multiprocessor.
///
/// Construct with a [`MachineConfig`], initialize memory through
/// [`mem_mut`](Machine::mem_mut), load an SPMD [`Program`] (each hardware
/// thread gets its global id in `r0` and the thread count in `r1`), then
/// [`run`](Machine::run).
///
/// Every multi-cycle entry point ([`run`](Machine::run),
/// [`run_naive`](Machine::run_naive), [`run_for`](Machine::run_for) and
/// the [`Fleet`](crate::Fleet)) drives one stepping loop, and
/// [`step`](Machine::step)/[`step_masked`](Machine::step_masked) run one
/// cycle of its body (DESIGN.md §8). Each cycle visits every stepped
/// thread once, in the issue stage, which also attributes its cycle to a
/// stall bucket. All but `run_naive`, `step` and `step_masked` park
/// threads that cannot act before a known cycle or event and account
/// their skipped cycles in bulk; no parked thread outlives the call, so
/// reports, clones and snapshots never see one.
///
/// A clone taken between calls is an independent machine that continues
/// bit-identically to the original: the litmus explorer branches schedules
/// this way, and `tests/snapshot_differential.rs` pins it mid-run on every
/// kernel.
#[derive(Clone, Debug)]
pub struct Machine {
    cfg: MachineConfig,
    mem: MemorySystem,
    cores: Vec<Core>,
    /// The loaded program and its predecoded issue table, shared with
    /// clones.
    code: Option<Arc<Code>>,
    cycle: u64,
    /// Reused completion buffer: the steady-state cycle loop performs no
    /// per-cycle heap allocation for completion delivery.
    comp_buf: Vec<MemCompletion>,
}

impl Machine {
    /// Builds a machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid. Use
    /// [`Machine::try_new`] for a non-panicking alternative.
    pub fn new(cfg: MachineConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(m) => m,
            Err(SimError::InvalidConfig(e)) => panic!("{e}"),
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds a machine, rejecting an invalid configuration as
    /// [`SimError::InvalidConfig`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] wrapping the first violated constraint
    /// (see [`MachineConfig::check`]).
    pub fn try_new(cfg: MachineConfig) -> Result<Self, SimError> {
        cfg.check().map_err(SimError::InvalidConfig)?;
        let mem = MemorySystem::new(cfg.mem.clone(), cfg.cores, cfg.threads_per_core);
        let cores = (0..cfg.cores).map(|id| Core::new(id, &cfg)).collect();
        Ok(Self {
            cfg,
            mem,
            cores,
            code: None,
            cycle: 0,
            comp_buf: Vec::new(),
        })
    }

    /// The machine configuration.
    pub fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Read access to the memory system (backing store, caches, stats).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Write access to the memory system (for initializing workload data).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Loads an SPMD program, resetting every thread. `r0` is set to the
    /// global thread id and `r1` to the total thread count.
    pub fn load_program(&mut self, program: Program) {
        let total = self.cfg.total_threads() as u64;
        for (c, core) in self.cores.iter_mut().enumerate() {
            for (t, th) in core.threads.iter_mut().enumerate() {
                *th = crate::thread::Thread::new(self.cfg.simd_width);
                let gid = (c * self.cfg.threads_per_core + t) as u64;
                th.arch.set_reg(Reg::new(0), gid);
                th.arch.set_reg(Reg::new(1), total);
            }
            core.reset_status_counts();
        }
        self.code = Some(Arc::new(Code::new(program)));
        self.cycle = 0;
    }

    /// The architectural state of global thread `gid` (for tests).
    ///
    /// # Panics
    ///
    /// Panics if `gid` is out of range.
    pub fn thread_arch(&self, gid: usize) -> &crate::arch::ThreadArch {
        let c = gid / self.cfg.threads_per_core;
        let t = gid % self.cfg.threads_per_core;
        &self.cores[c].threads[t].arch
    }

    /// Advances one cycle; returns `true` when every thread has halted.
    /// Runs no detector (watchdog, starvation, invariants, oracle, cycle
    /// budget): the caller polls what it needs.
    ///
    /// # Panics
    ///
    /// Panics if no program is loaded.
    pub fn step(&mut self) -> bool {
        self.advance(None, false)
    }

    /// [`step`](Machine::step) with a per-core issue mask: bit `t` of
    /// `masks[c]` allows thread `t` of core `c` to issue this cycle, and a
    /// thread masked out is accounted as losing the issue slot. The
    /// litmus schedule controller uses this to pin the machine to an
    /// explicit thread interleaving. With all-ones masks this is exactly
    /// `step`.
    ///
    /// # Panics
    ///
    /// Panics if `masks` is shorter than the core count, or no program is
    /// loaded.
    pub fn step_masked(&mut self, masks: &[u32]) -> bool {
        assert!(masks.len() >= self.cores.len(), "mask per core required");
        self.advance(Some(masks), false)
    }

    /// One cycle of the machine: the body of the stepping loop and of
    /// [`step`](Machine::step). In order: each core unparks the threads
    /// whose wake cycle has come, ticks its memory unit if busy and
    /// applies the completions (settling a parked recipient first); every
    /// core with a stepped thread runs its issue stage, which visits each
    /// stepped thread once and attributes its cycle, and every other core
    /// with a live thread rotates its round-robin start; then the barrier
    /// waiters' cycle is attributed: a complete barrier releases them all,
    /// settling the parked ones, and otherwise each stepped waiter takes a
    /// barrier cycle.
    ///
    /// With `park` set, a visited thread that cannot act before a known
    /// cycle or event parks (see
    /// [`Core::issue_stage`](crate::cpu::Core::issue_stage)), a waiter
    /// parks until the release, and a completion that does not free a
    /// parked thread leaves it parked.
    fn advance(&mut self, masks: Option<&[u32]>, park: bool) -> bool {
        let Self {
            cfg,
            mem,
            cores,
            code,
            cycle,
            comp_buf,
        } = self;
        let code: &Code = code.as_ref().expect("program loaded");
        let now = *cycle;
        for core in cores.iter_mut() {
            if core.next_wake <= now {
                core.wake_due(code, now);
            }
            // An idle unit's tick is a no-op that yields no completions.
            if !core.memunit.is_idle() {
                core.memunit.tick_into(mem, now, comp_buf);
                core.apply_completions(code, now, comp_buf);
            }
        }
        for (c, core) in cores.iter_mut().enumerate() {
            if core.stepped != 0 {
                core.issue_stage(code, cfg, now, masks.map_or(u32::MAX, |m| m[c]), park);
            } else {
                core.issued_any = false;
                if !core.all_halted() {
                    core.rotate_rr();
                }
            }
        }
        let (waiting, halted) = cores
            .iter()
            .fold((0, 0), |(w, h), c| (w + c.at_barrier, h + c.halted));
        let live = cfg.total_threads() - halted;
        if live > 0 && waiting == live {
            for core in cores.iter_mut() {
                core.release_barrier_threads(code, now);
            }
        } else {
            for core in cores.iter_mut() {
                if core.waiters != 0 {
                    core.hold_barrier_threads(now, park);
                }
            }
        }
        *cycle += 1;
        cores.iter().all(|c| c.all_halted() && c.memunit.is_idle())
    }

    /// Settles every parked thread through the current cycle, leaving the
    /// machine exactly as single-stepping would have.
    fn unpark_all(&mut self) {
        if let Some(code) = &self.code {
            for core in &mut self.cores {
                core.unpark_all(code, self.cycle);
            }
        }
    }

    /// The first atomicity violation the installed oracle has recorded,
    /// if any (`None` when no oracle is installed — the default).
    pub fn oracle_violation(&self) -> Option<&glsc_mem::AtomicityViolation> {
        self.mem.oracle_violation()
    }

    /// Instructions retired so far by global thread `gid` (lets schedule
    /// controllers observe whether a thread made progress).
    ///
    /// # Panics
    ///
    /// Panics if `gid` is out of range.
    pub fn thread_instructions(&self, gid: usize) -> u64 {
        let c = gid / self.cfg.threads_per_core;
        let t = gid % self.cfg.threads_per_core;
        self.cores[c].threads[t].stats.instructions
    }

    /// Whether global thread `gid` has halted.
    ///
    /// # Panics
    ///
    /// Panics if `gid` is out of range.
    pub fn thread_halted(&self, gid: usize) -> bool {
        let c = gid / self.cfg.threads_per_core;
        let t = gid % self.cfg.threads_per_core;
        self.cores[c].threads[t].is_halted()
    }

    /// Stores currently sitting in global thread `gid`'s write buffer
    /// (always 0 under sequential consistency).
    ///
    /// # Panics
    ///
    /// Panics if `gid` is out of range.
    pub fn buffered_stores(&self, gid: usize) -> usize {
        let c = gid / self.cfg.threads_per_core;
        let t = gid % self.cfg.threads_per_core;
        self.cores[c].memunit.lsu_buffered_stores(t as u8)
    }

    /// Runs until every thread halts, returning the aggregated report.
    /// Stalled and blocked threads park until they can act, and the clock
    /// jumps over cycles in which no thread is stepped and every memory
    /// unit is idle; the report is cycle-for-cycle identical to
    /// [`run_naive`](Machine::run_naive).
    ///
    /// # Errors
    ///
    /// [`SimError::NoProgram`] when no program was loaded;
    /// [`SimError::MaxCyclesExceeded`] when the configured cycle budget is
    /// exhausted; the detector errors ([`SimError::Livelock`],
    /// [`SimError::Starvation`], [`SimError::InvariantViolation`],
    /// [`SimError::AtomicityViolation`]) when enabled.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        self.drive(&mut SlicedRun::new(self), u64::MAX, true)?;
        Ok(self.report())
    }

    /// Runs the same loop as [`run`](Machine::run) with parking turned
    /// off, so every live thread is visited on every cycle. Kept as the
    /// reference for differential testing and performance comparison. It
    /// shares the issue stage's classification with `run`, so it checks
    /// parking, settling and clock jumps; the committed report digests of
    /// `tests/differential.rs` pin the classification itself.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Machine::run).
    pub fn run_naive(&mut self) -> Result<RunReport, SimError> {
        self.drive(&mut SlicedRun::new(self), u64::MAX, false)?;
        Ok(self.report())
    }

    /// The stepping loop: advances by at most `budget` cycles (one when
    /// `budget` is 0), returning `true` once every thread has halted and
    /// the memory units have drained. `ctl` carries the detector state
    /// across calls, so every detector fires on the cycle, and with the
    /// stats, that one uninterrupted single-stepped run would show.
    ///
    /// With `park` set, threads park on the visit that finds them unable
    /// to act and stay parked through completions that do not free them
    /// (see [`advance`](Self::advance)); when no core has a stepped
    /// thread or a busy memory unit, the clock jumps to the earliest
    /// thread wake. The jump is capped one cycle short of the cycle budget
    /// and of the watchdog deadline, so the next (non-issuing) step lands
    /// on the cycle where they fire, and at the end of the slice. Every parked thread is settled before the loop
    /// returns, for any reason.
    pub(crate) fn drive(
        &mut self,
        ctl: &mut SlicedRun,
        budget: u64,
        park: bool,
    ) -> Result<bool, SimError> {
        if self.code.is_none() {
            return Err(SimError::NoProgram);
        }
        let slice_end = self.cycle.saturating_add(budget);
        let verdict = loop {
            let done = self.advance(None, park);
            // Memory traffic only happens on stepped cycles, so polling
            // after each step catches every violation on the cycle it
            // commits, including one on the final step.
            if let Some(v) = self.mem.oracle_violation() {
                break Err(SimError::AtomicityViolation {
                    cycle: self.cycle,
                    violation: v.clone(),
                });
            }
            if done {
                break Ok(true);
            }
            // A streak can only reach the threshold on a cycle that
            // records a store-conditional failure, so the per-thread scan
            // runs only when the machine-wide failure count moved.
            if let Some(threshold) = self.cfg.starvation_threshold {
                let failures = self.mem.stats().sc_failures;
                if failures != ctl.sc_failures_seen {
                    ctl.sc_failures_seen = failures;
                    if let Some(err) = self.check_starvation(threshold) {
                        break Err(err);
                    }
                }
            }
            if self.cores.iter().any(|c| c.issued_any) {
                ctl.last_progress = self.cycle;
            } else if let Some(window) = self.cfg.watchdog_window {
                if self.cycle.saturating_sub(ctl.last_progress) >= window {
                    self.unpark_all();
                    break Err(SimError::Livelock {
                        cycle: self.cycle,
                        window,
                        stuck: self.stuck_threads(),
                        stalls: self.stall_totals(),
                        reservations: self.mem.reservation_state(),
                    });
                }
            }
            if let Some(at) = ctl.next_invariant_check {
                if self.cycle >= at {
                    if let Err(violation) = self.mem.try_check_invariants() {
                        break Err(SimError::InvariantViolation {
                            cycle: self.cycle,
                            violation,
                        });
                    }
                    let period = self.cfg.invariant_check_period.unwrap_or(u64::MAX);
                    ctl.next_invariant_check = Some(self.cycle.saturating_add(period));
                }
            }
            if self.cycle >= self.cfg.max_cycles {
                self.unpark_all();
                break Err(SimError::MaxCyclesExceeded {
                    cycle: self.cycle,
                    stuck: self.stuck_threads(),
                    stalls: self.stall_totals(),
                });
            }
            if park
                && self
                    .cores
                    .iter()
                    .all(|c| c.stepped == 0 && c.memunit.is_idle())
            {
                let wake = self
                    .cores
                    .iter()
                    .map(|c| c.next_wake)
                    .fold(u64::MAX, u64::min);
                let deadline = match self.cfg.watchdog_window {
                    Some(w) => ctl.last_progress.saturating_add(w),
                    None => u64::MAX,
                };
                let cap = self.cfg.max_cycles.min(deadline).saturating_sub(1);
                let to = self.cycle.max(wake.min(cap).min(slice_end));
                // Every skipped cycle rotates each live core's round-robin
                // start, as its issue stage would have.
                let skipped = to - self.cycle;
                for core in &mut self.cores {
                    if !core.all_halted() {
                        core.skip_rr(skipped);
                    }
                }
                self.cycle = to;
            }
            if self.cycle >= slice_end {
                break Ok(false);
            }
        };
        self.unpark_all();
        verdict
    }

    /// Builds the [`SimError::Starvation`] diagnostic if any thread's
    /// current consecutive-SC-failure streak has reached `threshold`.
    /// When several threads cross together, the longest streak wins and
    /// ties break toward the lowest global thread id — a deterministic
    /// choice, so `run` and `run_naive` report the same starved thread.
    fn check_starvation(&self, threshold: u64) -> Option<SimError> {
        let mut worst: Option<(usize, u64)> = None;
        for (gid, t) in self.mem.stats().sc_threads.iter().enumerate() {
            if t.cur_streak >= threshold && worst.is_none_or(|(_, s)| t.cur_streak > s) {
                worst = Some((gid, t.cur_streak));
            }
        }
        let (gid, streak) = worst?;
        Some(SimError::Starvation {
            cycle: self.cycle,
            gid,
            streak,
            failures: self
                .mem
                .stats()
                .sc_threads
                .iter()
                .map(|t| t.failures)
                .collect(),
            reservations: self.mem.reservation_state(),
        })
    }

    /// `(global thread id, pc)` of every non-halted thread.
    fn stuck_threads(&self) -> Vec<(usize, usize)> {
        let mut stuck = Vec::new();
        for (c, core) in self.cores.iter().enumerate() {
            for (t, th) in core.threads.iter().enumerate() {
                if !th.is_halted() {
                    stuck.push((c * self.cfg.threads_per_core + t, th.arch.pc));
                }
            }
        }
        stuck
    }

    /// Machine-wide stall-bucket totals so far.
    fn stall_totals(&self) -> StallTotals {
        let mut all = Vec::with_capacity(self.cfg.total_threads());
        for core in &self.cores {
            for th in &core.threads {
                all.push(th.stats.clone());
            }
        }
        StallTotals::from_threads(&all)
    }

    /// Captures the machine's state at the current cycle as a
    /// [`MachineSnapshot`]: the configuration, the cycle, every core's
    /// threads and memory unit, and the memory system. The program is not
    /// part of it. Nothing resumes from a snapshot; a run continues from
    /// a copy through [`Clone`], as the litmus explorer's branches do.
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            cfg: self.cfg.clone(),
            cycle: self.cycle,
            cores: self.cores.iter().map(Core::snapshot).collect(),
            mem: self.mem.clone(),
        }
    }

    /// Builds the statistics report for the run so far.
    pub fn report(&self) -> RunReport {
        let mut report = RunReport {
            cycles: self.cycle,
            threads: Vec::with_capacity(self.cfg.total_threads()),
            mem: self.mem.stats().clone(),
            memory_order: self.cfg.mem.memory_order,
            ..RunReport::default()
        };
        for core in &self.cores {
            for th in &core.threads {
                report.threads.push(th.stats.clone());
            }
            report.lsu.accumulate(core.memunit.lsu_stats());
            report.gsu.accumulate(core.memunit.gsu_stats());
        }
        report
    }
}

/// The state of a [`Machine`] at one cycle, produced by
/// [`Machine::snapshot`] and encoded by [`to_bytes`](Self::to_bytes).
///
/// Benchmark-only: no simulator, harness or service code uses it. It stays
/// because the benchmark (`perfbench/`) times its encode and decode as the
/// `sim.codec.*` metrics, and goes once it no longer does.
#[derive(Clone, Debug)]
pub struct MachineSnapshot {
    cfg: MachineConfig,
    cycle: u64,
    cores: Vec<CoreSnapshot>,
    mem: MemorySystem,
}

impl MachineSnapshot {
    /// Encodes this snapshot as one [`glsc_wire::frame`], the framing of
    /// job-store entries, journal records and protocol messages.
    /// [`MachineSnapshot::from_bytes`] inverts it, and re-encoding a
    /// decoded snapshot gives back the same bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        glsc_wire::frame(&glsc_wire::to_bytes(self))
    }

    /// Decodes bytes written by [`MachineSnapshot::to_bytes`]: exactly one
    /// intact frame whose payload decodes whole.
    ///
    /// # Errors
    ///
    /// [`WireError::Eof`] for a torn frame, [`WireError::Invalid`] for a
    /// checksum mismatch and [`WireError::TrailingBytes`] for bytes after
    /// the frame; a malformed payload fails with the first error its
    /// decode meets.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let (payload, rest) = glsc_wire::split_frame(bytes)?;
        if !rest.is_empty() {
            return Err(WireError::TrailingBytes { extra: rest.len() });
        }
        glsc_wire::from_bytes(payload)
    }
}

glsc_wire::wire_struct!(MachineSnapshot {
    cfg,
    cycle,
    cores,
    mem,
});

/// The detector state [`Machine::run_for`] threads across calls (the
/// watchdog's last-progress cycle, the next invariant-check cycle and the
/// starvation scan's gate), so a run split into slices fires the
/// watchdog, starvation and invariant checks on exactly the cycles an
/// unsliced [`Machine::run`] would. Built for drivers that step a bounded
/// number of cycles at a time and act between slices, as `glsc-serve`'s
/// supervisor does.
#[derive(Clone, Debug)]
pub struct SlicedRun {
    /// Last cycle at which any thread issued (watchdog anchor).
    last_progress: u64,
    /// Next cycle at which to run the periodic coherence check.
    next_invariant_check: Option<u64>,
    /// Total SC failures at the last starvation scan (scan gate).
    sc_failures_seen: u64,
}

impl SlicedRun {
    /// Detector state for running `machine` from its current cycle: the
    /// watchdog counts from here and the first invariant check falls one
    /// period ahead. A machine cloned between slices continues under a
    /// clone of its `SlicedRun`.
    pub fn new(machine: &Machine) -> Self {
        Self {
            last_progress: machine.cycle,
            next_invariant_check: machine
                .cfg
                .invariant_check_period
                .map(|p| machine.cycle.saturating_add(p)),
            sc_failures_seen: machine.mem.stats().sc_failures,
        }
    }
}

impl Machine {
    /// Advances the machine by at most `budget` cycles (one when `budget`
    /// is 0), returning `Some(report)` once every thread has halted and
    /// the memory units have drained, `None` while work remains. The
    /// concatenation of slices is bit-identical to one uninterrupted
    /// [`Machine::run`], the property `tests/differential.rs` and the
    /// kill-drill oracle pin down.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Machine::run`], surfaced on the same cycle.
    pub fn run_for(
        &mut self,
        run: &mut SlicedRun,
        budget: u64,
    ) -> Result<Option<RunReport>, SimError> {
        Ok(self.drive(run, budget, true)?.then(|| self.report()))
    }
}
