//! The fleet engine: many machine runs in one process with amortized
//! per-job cost (DESIGN.md §13).
//!
//! A sweep over kernels × configurations is the unit of work this
//! reproduction actually executes (fig5–fig8, table4, the contention
//! studies), and the solo path pays a fixed tax per job: building a
//! [`Machine`] allocates megabytes of cache-tag sets, filling the dataset
//! writes every page of the image, and dropping the machine walks it all
//! again. A [`Fleet`] amortizes all three:
//!
//! * **machine pooling** — finished machines are [`Machine::reset`] (an
//!   allocation-preserving return to the pristine state) and reused for
//!   the next job with the same configuration;
//! * **shared datasets** — jobs mount their initial memory image as a
//!   copy-on-write [`BackingBase`] instead of writing it word by word
//!   ([`glsc_mem::Backing::set_base`]);
//! * **batched stepping** — up to [`width`](Fleet::with_width) live
//!   machines advance round-robin, one
//!   [quantum](Fleet::with_quantum) of cycles per pass, through one
//!   shared completion scratch buffer and a stepping loop with the solo
//!   loop's per-cycle overhead hoisted out (see `Machine::run_slice`).
//!
//! Every completed job yields a [`RunReport`] **bit-identical** to the
//! same job run solo through [`Machine::run`] — enforced by the fleet
//! differential oracle in `glsc-bench` across every kernel, Fig. 6
//! shape, the Ideal and Ring topologies, and a chaos plan.

use crate::config::MachineConfig;
use crate::machine::{Machine, RunCtl, SimError, SliceOutcome};
use crate::report::RunReport;
use glsc_core::MemCompletion;
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
/// with the member that just finished a quantum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PauseCtl {
    /// Keep running the job.
    Continue,
    /// Abandon this job (deadline, policy): the member is retired without
    /// a completion callback — the supervisor already knows why.
    FailJob,
    /// Stop the whole fleet (drain) at once: no hook runs again, live
    /// members are dropped mid-run, and unstarted jobs are never mounted.
    Halt,
}

/// Why a supervised fleet job ended without a report.
#[derive(Debug)]
pub enum FleetFailure {
    /// The simulation aborted with a typed error (livelock, starvation,
    /// cycle budget, invariant violation).
    Sim(SimError),
    /// The stepping loop panicked. The member's machine is discarded, not
    /// pooled — its state cannot be trusted — and the payload message is
    /// preserved for the supervisor's failure ledger.
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

/// A live fleet member: which job it is running, its detector state, and
/// the rest of its configuration group's job queue.
struct Member {
    idx: usize,
    machine: Machine,
    ctl: RunCtl,
    queue: std::collections::VecDeque<usize>,
}

/// Mounts the next job of `queue` onto `machine` (which is fresh or
/// reset): program, CoW base, and fault plan. The detector state is
/// created *after* mounting, so it sees the job's starting state.
fn mount_member(
    mut machine: Machine,
    mut queue: std::collections::VecDeque<usize>,
    jobs: &mut [Option<FleetJob>],
) -> Member {
    let idx = queue.pop_front().expect("group queues are non-empty");
    let FleetJob {
        program,
        base,
        fault_plan,
        ..
    } = jobs[idx].take().expect("each job admitted once");
    if let Some(base) = base {
        machine.mem_mut().backing_mut().set_base(base);
    }
    machine.load_program(program);
    if let Some(plan) = fault_plan {
        machine.mem_mut().install_fault_plan(plan);
    }
    let ctl = RunCtl::new(&machine);
    Member {
        idx,
        machine,
        ctl,
        queue,
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

/// Groups job indices by machine configuration (order-preserving).
fn group_by_config(
    jobs: &[FleetJob],
) -> std::collections::VecDeque<(MachineConfig, std::collections::VecDeque<usize>)> {
    let mut groups: Vec<(MachineConfig, std::collections::VecDeque<usize>)> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        match groups.iter_mut().find(|(cfg, _)| *cfg == job.cfg) {
            Some((_, q)) => q.push_back(i),
            None => groups.push((job.cfg.clone(), std::iter::once(i).collect())),
        }
    }
    groups.into()
}

/// Batched multi-machine runner. See the [module docs](self).
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
    /// A fleet with the default batch width (4 machines per pass) and
    /// quantum (8192 cycles per machine per pass). Neither knob affects
    /// results, only host-side locality.
    pub fn new() -> Self {
        Self {
            quantum: 8192,
            width: 4,
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

    /// Sets how many machines are live at once.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn with_width(mut self, width: usize) -> Self {
        assert!(width > 0, "width must be positive");
        self.width = width;
        self
    }

    /// Runs every job, invoking `on_done(index, machine, result)` as each
    /// finishes (not in index order). The machine handed to the callback
    /// holds the job's final state — backing store for validation, chaos
    /// stats, and so on — and is reset and pooled for reuse after the
    /// callback returns.
    ///
    /// Scheduling is **configuration-affine**: jobs are grouped by
    /// machine configuration and each of the `width` slots drains one
    /// group at a time, so a slot's machine is reset and reused across
    /// every job of its shape instead of bouncing through the pool while
    /// other shapes occupy the window. Building a machine costs
    /// milliseconds (megabytes of cache-tag capacity); resetting one
    /// costs microseconds — without affinity a mixed sweep rebuilds
    /// machines at every slot refill and the fleet loses exactly the
    /// amortization it exists to provide. Within a group, jobs run in
    /// submission order.
    ///
    /// # Panics
    ///
    /// Panics if a job's configuration is invalid (as [`Machine::new`]
    /// would).
    pub fn run_each<F>(&self, jobs: Vec<FleetJob>, mut on_done: F)
    where
        F: FnMut(usize, &mut Machine, Result<RunReport, SimError>),
    {
        let mut groups = group_by_config(&jobs);
        let mut jobs: Vec<Option<FleetJob>> = jobs.into_iter().map(Some).collect();
        let mut pool: Vec<Machine> = Vec::new();
        let mut active: Vec<Member> = Vec::new();
        let mut comp_buf: Vec<MemCompletion> = Vec::new();
        let mut mount = mount_member;

        loop {
            // Refill the batch window: one group per free slot.
            while active.len() < self.width {
                let Some((cfg, queue)) = groups.pop_front() else {
                    break;
                };
                let machine = match pool.iter().position(|m| *m.cfg() == cfg) {
                    Some(i) => pool.swap_remove(i),
                    None => Machine::new(cfg),
                };
                active.push(mount(machine, queue, &mut jobs));
            }
            if active.is_empty() {
                return;
            }
            // One pass: a quantum for each live member. A finished member
            // reports, resets its machine, and mounts its group's next
            // job in place; an exhausted group parks the machine in the
            // pool and frees the slot for the next group.
            let mut i = 0;
            while i < active.len() {
                let m = &mut active[i];
                let outcome = m.machine.run_slice(&mut m.ctl, self.quantum, &mut comp_buf);
                match outcome {
                    Ok(SliceOutcome::Paused) => i += 1,
                    Err(e) => {
                        let member = &mut active[i];
                        on_done(member.idx, &mut member.machine, Err(e));
                        Self::retire(&mut active, i, &mut pool, &mut jobs, &mut mount);
                    }
                    Ok(SliceOutcome::Done) => {
                        let member = &mut active[i];
                        let report = member.machine.report();
                        on_done(member.idx, &mut member.machine, Ok(report));
                        Self::retire(&mut active, i, &mut pool, &mut jobs, &mut mount);
                    }
                }
            }
        }
    }

    /// The supervised variant of [`run_each`](Fleet::run_each): same
    /// config-affine batched stepping, plus the hooks a crash-durable
    /// job service needs (DESIGN.md §15).
    ///
    /// * `on_pause(index, machine)` runs at every quantum boundary of
    ///   every live member — the supervisor's chance to poll for a drain
    ///   signal or enforce a deadline. Returning [`PauseCtl::FailJob`]
    ///   retires the member with no completion callback;
    ///   [`PauseCtl::Halt`] stops the fleet on the spot, calling no hook
    ///   again.
    /// * `on_done(index, machine, result)` fires as each job finishes.
    ///   Unlike `run_each`, a panic inside the stepping loop is caught
    ///   and reported as [`FleetFailure::Panicked`]; the panicking
    ///   machine is discarded instead of pooled, and the fleet keeps
    ///   going — one hostile job cannot take down the batch.
    ///
    /// Returns `true` when every job ran to an outcome, `false` when a
    /// hook halted the fleet (jobs not yet mounted never start).
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
        let mut groups = group_by_config(&jobs);
        let mut jobs: Vec<Option<FleetJob>> = jobs.into_iter().map(Some).collect();
        let mut pool: Vec<Machine> = Vec::new();
        let mut active: Vec<Member> = Vec::new();
        let mut comp_buf: Vec<MemCompletion> = Vec::new();
        let mut mount = mount_member;

        loop {
            while active.len() < self.width {
                let Some((cfg, queue)) = groups.pop_front() else {
                    break;
                };
                let machine = match pool.iter().position(|m| *m.cfg() == cfg) {
                    Some(i) => pool.swap_remove(i),
                    None => Machine::new(cfg),
                };
                active.push(mount(machine, queue, &mut jobs));
            }
            if active.is_empty() {
                return true;
            }
            let mut i = 0;
            while i < active.len() {
                let m = &mut active[i];
                let sliced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    m.machine.run_slice(&mut m.ctl, self.quantum, &mut comp_buf)
                }));
                match sliced {
                    Err(payload) => {
                        let member = &mut active[i];
                        on_done(
                            member.idx,
                            &mut member.machine,
                            Err(FleetFailure::Panicked(panic_message(payload))),
                        );
                        // Mid-panic machine state cannot be trusted:
                        // drop it and mount the group's next job (if
                        // any) on a fresh build.
                        let member = active.swap_remove(i);
                        if let Some(&next) = member.queue.front() {
                            let cfg = jobs[next]
                                .as_ref()
                                .expect("queued jobs are unmounted")
                                .cfg
                                .clone();
                            active.push(mount(Machine::new(cfg), member.queue, &mut jobs));
                        }
                    }
                    Ok(Ok(SliceOutcome::Paused)) => {
                        let member = &mut active[i];
                        match on_pause(member.idx, &mut member.machine) {
                            PauseCtl::Continue => i += 1,
                            PauseCtl::FailJob => {
                                Self::retire(&mut active, i, &mut pool, &mut jobs, &mut mount);
                            }
                            PauseCtl::Halt => return false,
                        }
                    }
                    Ok(Err(e)) => {
                        let member = &mut active[i];
                        on_done(member.idx, &mut member.machine, Err(FleetFailure::Sim(e)));
                        Self::retire(&mut active, i, &mut pool, &mut jobs, &mut mount);
                    }
                    Ok(Ok(SliceOutcome::Done)) => {
                        let member = &mut active[i];
                        let report = member.machine.report();
                        on_done(member.idx, &mut member.machine, Ok(report));
                        Self::retire(&mut active, i, &mut pool, &mut jobs, &mut mount);
                    }
                }
            }
        }
    }

    /// Retires `active[i]`'s finished job: resets the machine, mounts the
    /// group's next job in place, or parks the machine and frees the
    /// slot.
    fn retire(
        active: &mut Vec<Member>,
        i: usize,
        pool: &mut Vec<Machine>,
        jobs: &mut [Option<FleetJob>],
        mount: &mut impl FnMut(
            Machine,
            std::collections::VecDeque<usize>,
            &mut [Option<FleetJob>],
        ) -> Member,
    ) {
        let member = active.swap_remove(i);
        let mut machine = member.machine;
        machine.reset();
        if member.queue.is_empty() {
            pool.push(machine);
        } else {
            active.push(mount(machine, member.queue, jobs));
        }
    }

    /// Runs every job and returns the results in job order.
    pub fn run_all(&self, jobs: Vec<FleetJob>) -> Vec<Result<RunReport, SimError>> {
        let n = jobs.len();
        let mut results: Vec<Option<Result<RunReport, SimError>>> = (0..n).map(|_| None).collect();
        self.run_each(jobs, |idx, _machine, result| {
            results[idx] = Some(result);
        });
        results
            .into_iter()
            .map(|r| r.expect("every job reported"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsc_isa::{ProgramBuilder, Reg};

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
        // Three jobs on two configs, two slots: both slots are live when
        // the first pause halts, and a third job is still queued.
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
}
