//! The fleet: a supervised, sliced executor (DESIGN.md §13).
//!
//! No product code uses it: `glsc-serve` runs each job in its own loop
//! over [`Machine::run_for`]. The fleet, [`FleetJob::with_base`] and
//! [`PauseCtl`] stay because the benchmark (`perfbench/`) builds
//! against them; they go once it no longer does.
//!
//! A [`Fleet`] runs a list of jobs, each on a fresh [`Machine::new`],
//! mounting them in submission order. Every job advances in slices of at
//! most one [quantum](Fleet::with_quantum) of cycles through the same
//! stepping loop as [`Machine::run`], and between slices a pause hook
//! decides whether it continues, fails, or stops the whole run. A panic
//! inside the stepping loop is contained to its job. By default one job
//! runs at a time; [`with_width`](Fleet::with_width) keeps up to that many
//! live and steps them round-robin. A job may mount its initial memory
//! image as a shared copy-on-write [`BackingBase`] instead of writing it
//! word by word ([`glsc_mem::Backing::set_base`]).
//!
//! Every completed job yields a [`RunReport`] **bit-identical** to the
//! same job run solo through [`Machine::run`] — enforced by the fleet
//! differential oracle in `glsc-bench` across every kernel, Fig. 6
//! shape, the Ideal and Ring topologies, and a chaos plan.

use crate::config::MachineConfig;
use crate::machine::{Machine, SimError, SlicedRun};
use crate::report::RunReport;
use glsc_isa::Program;
use glsc_mem::{BackingBase, FaultPlan};
use std::sync::Arc;

/// One job for a [`Fleet`]: a configuration, a program, and optionally a
/// shared dataset base and a fault plan.
#[derive(Clone, Debug)]
pub struct FleetJob {
    /// Machine configuration to run under.
    pub cfg: MachineConfig,
    /// The SPMD program.
    pub program: Program,
    /// Initial memory image, mounted copy-on-write. `None` runs with
    /// all-zero memory.
    pub base: Option<Arc<BackingBase>>,
    /// Fault-injection plan to install before the run (DESIGN.md §9).
    pub fault_plan: Option<FaultPlan>,
}

impl FleetJob {
    /// A plain job: configuration + program, zero-filled memory, no chaos.
    pub fn new(cfg: MachineConfig, program: Program) -> Self {
        Self {
            cfg,
            program,
            base: None,
            fault_plan: None,
        }
    }

    /// Mounts `base` as the job's initial memory image.
    pub fn with_base(mut self, base: Arc<BackingBase>) -> Self {
        self.base = Some(base);
        self
    }

    /// Installs `plan` before the run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// What a [`Fleet::run_each_supervised`] pause hook tells the fleet to do
/// with the job that just finished a quantum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PauseCtl {
    /// Keep running the job.
    Continue,
    /// Abandon this job (deadline, policy): its machine is dropped
    /// without a completion callback — the supervisor already knows why.
    FailJob,
    /// Stop the whole fleet (drain) at once: no hook runs again, live
    /// jobs are dropped mid-run, and unstarted jobs are never mounted.
    Halt,
}

/// Why a supervised fleet job ended without a report.
#[derive(Debug)]
pub enum FleetFailure {
    /// The simulation aborted with a typed error (livelock, starvation,
    /// cycle budget, invariant violation).
    Sim(SimError),
    /// The stepping loop panicked. The job's machine is dropped — its
    /// state cannot be trusted — and the payload message is preserved
    /// for the supervisor's failure ledger.
    Panicked(String),
}

impl std::fmt::Display for FleetFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetFailure::Sim(e) => write!(f, "simulation failed: {e}"),
            FleetFailure::Panicked(msg) => write!(f, "{msg}"),
        }
    }
}

/// A live job: its index, its machine, and its detector state.
struct Member {
    idx: usize,
    machine: Machine,
    ctl: SlicedRun,
}

impl Member {
    /// Builds a fresh machine for job `idx` and mounts the job: CoW base,
    /// program, and fault plan. The detector state is created *after*
    /// mounting, so it sees the job's starting state.
    fn mount(idx: usize, job: FleetJob) -> Self {
        let FleetJob {
            cfg,
            program,
            base,
            fault_plan,
        } = job;
        let mut machine = Machine::new(cfg);
        if let Some(base) = base {
            machine.mem_mut().backing_mut().set_base(base);
        }
        machine.load_program(program);
        if let Some(plan) = fault_plan {
            machine.mem_mut().install_fault_plan(plan);
        }
        let ctl = SlicedRun::new(&machine);
        Self { idx, machine, ctl }
    }
}

/// Renders a panic payload the way the supervisor ledgers expect.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Supervised, sliced job runner (DESIGN.md §13): each job runs on a
/// fresh machine in quanta of cycles, with a pause hook between slices.
#[derive(Clone, Debug)]
pub struct Fleet {
    quantum: u64,
    width: usize,
}

impl Default for Fleet {
    fn default() -> Self {
        Self::new()
    }
}

impl Fleet {
    /// A fleet that runs one job at a time in quanta of 8192 cycles.
    /// Neither knob affects results.
    pub fn new() -> Self {
        Self {
            quantum: 8192,
            width: 1,
        }
    }

    /// Sets the per-pass cycle quantum.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn with_quantum(mut self, quantum: u64) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        self.quantum = quantum;
        self
    }

    /// Sets how many jobs are live at once; they advance round-robin, one
    /// quantum each per pass.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn with_width(mut self, width: usize) -> Self {
        assert!(width > 0, "width must be positive");
        self.width = width;
        self
    }

    /// Runs every job, each on a fresh machine, with a pause hook and a
    /// completion hook. Jobs are mounted in submission order as slots
    /// free up; at the default width of one each job runs to its outcome
    /// before the next one starts.
    ///
    /// * `on_pause(index, machine)` runs at every quantum boundary of
    ///   every live job — the supervisor's chance to poll for a drain
    ///   signal or enforce a deadline. Returning [`PauseCtl::FailJob`]
    ///   drops the job with no completion callback; [`PauseCtl::Halt`]
    ///   stops the fleet on the spot, calling no hook again.
    /// * `on_done(index, machine, result)` fires as each job finishes,
    ///   with the machine holding the job's final state (backing store
    ///   for validation, chaos stats); the machine is dropped after the
    ///   callback returns. A panic inside the stepping loop is caught and
    ///   reported as [`FleetFailure::Panicked`], and the fleet keeps
    ///   going — one hostile job cannot take down the batch.
    ///
    /// Returns `true` when every job ran to an outcome, `false` when a
    /// hook halted the fleet (jobs not yet mounted never start).
    ///
    /// # Panics
    ///
    /// Panics if a job's configuration is invalid (as [`Machine::new`]
    /// would).
    pub fn run_each_supervised<P, F>(
        &self,
        jobs: Vec<FleetJob>,
        mut on_pause: P,
        mut on_done: F,
    ) -> bool
    where
        P: FnMut(usize, &mut Machine) -> PauseCtl,
        F: FnMut(usize, &mut Machine, Result<RunReport, FleetFailure>),
    {
        let mut queue = jobs.into_iter().enumerate();
        let mut active: Vec<Member> = Vec::new();
        loop {
            while active.len() < self.width {
                let Some((idx, job)) = queue.next() else {
                    break;
                };
                active.push(Member::mount(idx, job));
            }
            if active.is_empty() {
                return true;
            }
            // One pass: a quantum for each live job. A job that ends
            // leaves the window; its slot is refilled before the next
            // pass.
            let mut i = 0;
            while i < active.len() {
                let m = &mut active[i];
                let sliced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    m.machine.drive(&mut m.ctl, self.quantum, true)
                }));
                let m = &mut active[i];
                match sliced {
                    Ok(Ok(false)) => match on_pause(m.idx, &mut m.machine) {
                        PauseCtl::Continue => {
                            i += 1;
                            continue;
                        }
                        PauseCtl::FailJob => {}
                        PauseCtl::Halt => return false,
                    },
                    Ok(Ok(true)) => {
                        let report = m.machine.report();
                        on_done(m.idx, &mut m.machine, Ok(report));
                    }
                    Ok(Err(e)) => on_done(m.idx, &mut m.machine, Err(FleetFailure::Sim(e))),
                    Err(payload) => on_done(
                        m.idx,
                        &mut m.machine,
                        Err(FleetFailure::Panicked(panic_message(payload))),
                    ),
                }
                active.remove(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsc_isa::{ProgramBuilder, Reg, VReg};

    /// A countdown loop long enough to pause several times under a small
    /// quantum, ending with a store that proves it ran to completion.
    fn countdown(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let (r_cnt, r_addr) = (Reg::new(2), Reg::new(3));
        b.li(r_cnt, iters);
        b.li(r_addr, 0x2000);
        let top = b.label();
        b.bind(top).expect("fresh label");
        b.addi(r_cnt, r_cnt, -1);
        b.bne(r_cnt, 0, top);
        b.st(r_cnt, r_addr, 0);
        b.halt();
        b.build().expect("countdown assembles")
    }

    /// A program whose first instruction reads lane 9 of a 4-wide vector
    /// register, which panics inside the stepping loop.
    fn lane_out_of_range() -> Program {
        let mut b = ProgramBuilder::new();
        b.vextract(Reg::new(2), VReg::new(0), 9u8);
        b.halt();
        b.build().expect("vextract assembles")
    }

    fn solo_report(cfg: &MachineConfig, program: &Program) -> RunReport {
        let mut m = Machine::new(cfg.clone());
        m.load_program(program.clone());
        m.run().expect("solo run completes")
    }

    #[test]
    fn supervised_matches_solo_and_counts_pauses() {
        let cfg = MachineConfig::paper(1, 2, 4);
        let program = countdown(200);
        let solo = solo_report(&cfg, &program);

        let mut pauses = 0usize;
        let mut got = None;
        let done = Fleet::new().with_quantum(64).run_each_supervised(
            vec![FleetJob::new(cfg, program)],
            |_, _| {
                pauses += 1;
                PauseCtl::Continue
            },
            |idx, _, result| {
                assert_eq!(idx, 0);
                got = Some(result.expect("job completes"));
            },
        );
        assert!(done);
        assert!(
            pauses > 1,
            "quantum 64 must pause a {}-cycle run",
            solo.cycles
        );
        assert_eq!(got.expect("job reported"), solo);
    }

    #[test]
    fn halt_stops_the_fleet_without_calling_any_hook_again() {
        // Three jobs, two slots: both slots are live when the first pause
        // halts, and a third job is still queued.
        let jobs = vec![
            FleetJob::new(MachineConfig::paper(1, 1, 4), countdown(2_000)),
            FleetJob::new(MachineConfig::paper(1, 2, 4), countdown(2_000)),
            FleetJob::new(MachineConfig::paper(1, 1, 4), countdown(100)),
        ];
        let mut pauses = Vec::new();
        let done = Fleet::new()
            .with_quantum(64)
            .with_width(2)
            .run_each_supervised(
                jobs,
                |idx, _| {
                    pauses.push(idx);
                    PauseCtl::Halt
                },
                |idx, _, _| panic!("job {idx} must not finish after the halt"),
            );
        assert!(!done, "halted fleet must report an incomplete run");
        assert_eq!(
            pauses.len(),
            1,
            "Halt must not re-offer members: {pauses:?}"
        );
    }

    #[test]
    fn fail_job_retires_without_completion_and_batch_continues() {
        let cfg = MachineConfig::paper(1, 1, 4);
        let jobs = vec![
            FleetJob::new(cfg.clone(), countdown(5_000)),
            FleetJob::new(cfg.clone(), countdown(100)),
        ];
        let solo = solo_report(&cfg, &countdown(100));
        let mut finished = Vec::new();
        let done = Fleet::new().with_quantum(32).run_each_supervised(
            jobs,
            |idx, _| {
                // Abandon the long job at its first pause (a deadline, in
                // the service's terms); the short one runs out.
                if idx == 0 {
                    PauseCtl::FailJob
                } else {
                    PauseCtl::Continue
                }
            },
            |idx, _, result| finished.push((idx, result.expect("short job completes"))),
        );
        assert!(done);
        assert_eq!(finished.len(), 1, "failed job must not reach on_done");
        assert_eq!(finished[0].0, 1);
        assert_eq!(finished[0].1, solo);
    }

    #[test]
    fn jobs_run_one_at_a_time_in_submission_order() {
        // A long job, then a short one on another configuration, then a
        // short one sharing the first job's configuration: each must
        // finish before the next starts, whatever its configuration.
        let jobs = vec![
            FleetJob::new(MachineConfig::paper(1, 1, 4), countdown(2_000)),
            FleetJob::new(MachineConfig::paper(1, 2, 4), countdown(100)),
            FleetJob::new(MachineConfig::paper(1, 1, 4), countdown(100)),
        ];
        let (mut paused, mut finished) = (Vec::new(), Vec::new());
        let done = Fleet::new().with_quantum(64).run_each_supervised(
            jobs,
            |idx, _| {
                paused.push(idx);
                PauseCtl::Continue
            },
            |idx, _, result| {
                result.expect("job completes");
                finished.push(idx);
            },
        );
        assert!(done);
        assert_eq!(finished, [0, 1, 2]);
        // No job pauses after a later job has started.
        assert!(paused.windows(2).all(|w| w[0] <= w[1]), "{paused:?}");
        assert!(paused.contains(&1) && paused.contains(&2), "{paused:?}");
    }

    #[test]
    fn stepping_loop_panic_is_a_supervised_failure() {
        let cfg = MachineConfig::paper(1, 1, 4);
        let jobs = vec![
            FleetJob::new(cfg.clone(), lane_out_of_range()),
            FleetJob::new(cfg, countdown(100)),
        ];

        // The panic is the job's typed failure, and the next job still
        // runs.
        let mut outcomes = Vec::new();
        let done = Fleet::new().run_each_supervised(
            jobs,
            |_, _| PauseCtl::Continue,
            |idx, _, result| outcomes.push((idx, result)),
        );
        assert!(done);
        assert_eq!(outcomes.len(), 2);
        match &outcomes[0] {
            (0, Err(FleetFailure::Panicked(msg))) => {
                assert!(msg.contains("lane 9 out of range"), "{msg}")
            }
            other => panic!("job 0 must fail with a panic: {other:?}"),
        }
        assert_eq!(outcomes[1].0, 1);
        assert!(outcomes[1].1.is_ok(), "job 1 must complete");
    }
}
