//! The supervised, crash-durable sweep runner.
//!
//! One [`JobSpec`] per simulation; the supervisor routes every round of
//! attempts through the fleet engine ([`glsc_sim::Fleet`]) — jobs are
//! grouped into config-affine slots and advance in batched quanta of
//! `FLEET_QUANTUM` (1,024) cycles, so a sweep amortizes machine
//! construction and dataset mounting exactly as the bench harness does.
//! Every job state transition is write-ahead journaled (`accepted →
//! done | quarantined`, with `failed` marks in between); a finished
//! report goes to the result store before its `done` record is appended.
//!
//! Recovery is a rerun. A restart — crash or drain — replays the
//! journal, reprints every `done` job from the result store, and reruns
//! every other job from its spec (a chaos job from its fault-plan seed).
//! Simulations are deterministic, so the output is byte-identical to an
//! uninterrupted run (the kill-drill oracle in `tests/` pins this for
//! every kernel × Fig. 6 shape). Nothing about a run in flight is
//! persisted: no job is long enough for a mid-run checkpoint to cost
//! less than simply simulating it again.
//!
//! Failure policy: a panicking, sim-erroring, or deadline-tripping
//! attempt appends a `Failed` record and retries next round after the
//! seeded jittered backoff; a panic is contained to its fleet member
//! (machine discarded, batch keeps stepping). A job whose failure count
//! (across restarts — the journal remembers) reaches `max_failures` is
//! quarantined and reported as a `QUAR` row while the rest of the sweep
//! completes, with a nonzero exit.

use crate::journal::{replay, JobLedger, Journal, JournalRecord};
use crate::{kill, signal};
use glsc_bench::store::{cfg_fingerprint, job_key};
use glsc_bench::{backoff_jittered_ms, JobError, JobStore};
use glsc_kernels::{build_named, Dataset, Variant, Workload};
use glsc_sim::{
    BackingBase, ChaosConfig, FaultPlan, Fleet, FleetFailure, FleetJob, Machine, MachineConfig,
    PauseCtl, RunReport,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Simulated cycles each live fleet member advances between supervision
/// pauses. Results do not depend on it; it only sets how promptly a
/// drain, a deadline, or an injected `cycles:` kill is noticed — short
/// enough to land inside the shortest tiny job, long enough that the
/// pause hook costs nothing measurable.
const FLEET_QUANTUM: u64 = 1_024;

/// Service-wide knobs.
#[derive(Debug)]
pub struct ServiceConfig {
    /// Root of all durable state: `journal.log` and `cache/`.
    pub state_dir: PathBuf,
    /// Per-attempt wall-clock budget; `None` = unlimited.
    pub deadline_wall_ms: Option<u64>,
    /// Simulated-cycle budget per attempt; `None` = unlimited. Every
    /// attempt starts at cycle 0, so a wedged job trips this on every
    /// attempt, burns its failure budget, and quarantines.
    pub deadline_cycles: Option<u64>,
    /// Failures (across restarts) before a job is quarantined.
    pub max_failures: u32,
    /// Seed for the deterministic retry-backoff jitter.
    pub seed: u64,
    /// Fleet batch width: how many machines are live at once.
    pub fleet_width: usize,
    /// Admission-queue capacity for the protocol front-end; submissions
    /// past this bound are shed (see [`crate::queue`]).
    pub queue_capacity: usize,
}

impl ServiceConfig {
    /// Defaults: no deadlines, quarantine after 3 failures, seed 0, fleet
    /// width 4, queue capacity 64.
    pub fn new(state_dir: PathBuf) -> Self {
        Self {
            state_dir,
            deadline_wall_ms: None,
            deadline_cycles: None,
            max_failures: 3,
            seed: 0,
            fleet_width: 4,
            queue_capacity: 64,
        }
    }
}

/// One supervised simulation.
pub struct JobSpec {
    /// Stable, filesystem-safe id; names the job in the journal, the
    /// result cache, and the sweep table.
    pub id: String,
    /// What to simulate and how to validate it.
    pub workload: Workload,
    /// Machine to run it on.
    pub cfg: MachineConfig,
    /// Fault-plan seed: `Some` runs the job under seeded chaos and
    /// reports the injection counters alongside the result.
    pub chaos: Option<u64>,
    /// Per-job cycle deadline, overriding the service-wide one. The
    /// wedged drill job carries its own so it quarantines without
    /// imposing a budget on healthy jobs in the same sweep.
    pub deadline_cycles: Option<u64>,
    /// Per-job wall-clock deadline, overriding the service-wide one.
    pub deadline_wall_ms: Option<u64>,
}

impl JobSpec {
    /// Builds the spec for a named kernel on a Fig. 6 shape, keyed the
    /// same way the bench harness keys it (so ids read like
    /// `HIP-T-glsc-4x4-w4`). Chaos jobs get a `-chaos<seed>` suffix —
    /// the fault plan changes timing, so it must change identity.
    ///
    /// Kernel names (including `pattern:<spec>` strings) come from
    /// protocol clients, so an unbuildable name is a typed error the
    /// admission path can turn into a `Rejected` reply.
    pub fn kernel(
        kernel: &str,
        ds: Dataset,
        variant: Variant,
        (cores, tpc): (usize, usize),
        width: usize,
        chaos: Option<u64>,
    ) -> Result<Self, glsc_kernels::KernelError> {
        let mut cfg = MachineConfig::paper(cores, tpc, width);
        if chaos.is_some() {
            // Same guard rails as the bench chaos path: the plan slows
            // runs down, so give headroom and keep the watchdog armed.
            cfg = cfg
                .with_max_cycles(2_000_000_000)
                .with_watchdog_window(Some(5_000_000));
        }
        let workload = build_named(kernel, ds, variant, &cfg)?;
        let mut id = format!(
            "{kernel}-{}-{}-{cores}x{tpc}-w{width}",
            glsc_bench::ds_label(ds),
            variant.label()
        );
        if let Some(seed) = chaos {
            id.push_str(&format!("-chaos{seed}"));
        }
        Ok(Self {
            id,
            workload,
            cfg,
            chaos,
            deadline_cycles: None,
            deadline_wall_ms: None,
        })
    }

    /// A job that never halts: a one-instruction jump loop. The fault
    /// drill for the deadline + quarantine path (`--inject-wedged`).
    pub fn wedged() -> Self {
        let mut b = glsc_isa::ProgramBuilder::new();
        let top = b.label();
        b.bind(top).expect("fresh label");
        b.li(glsc_isa::Reg::new(1), 1);
        b.jmp(top);
        b.halt();
        Self {
            id: "WEDGE".to_string(),
            workload: Workload {
                name: "WEDGE".to_string(),
                program: b.build().expect("wedge program assembles"),
                image: glsc_kernels::MemImage::new(),
                validate: Box::new(|_| Ok(())),
            },
            cfg: MachineConfig::paper(1, 1, 4).with_max_cycles(u64::MAX / 2),
            chaos: None,
            // Self-contained drill: the wedge budgets itself, so healthy
            // jobs sharing the sweep keep running without a deadline.
            deadline_cycles: Some(50_000),
            deadline_wall_ms: None,
        }
    }

    fn cache_key(&self) -> String {
        job_key(
            &[&self.id],
            self.workload.fingerprint() ^ self.chaos.map_or(0, |s| s.wrapping_mul(0x9E37_79B9)),
            cfg_fingerprint(&self.cfg),
        )
    }
}

/// One finished job's durable result.
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    /// The simulation report (bit-identical to an unsupervised run).
    pub report: RunReport,
    /// Rendered chaos counters when the job ran under a fault plan.
    pub chaos: Option<String>,
}

/// Per-job outcomes in submission order; `None` marks jobs not reached
/// before a drain.
pub type SweepOutcomes = Vec<Option<Result<JobResult, JobError>>>;

/// Outcome of a whole sweep.
pub struct SweepReport {
    /// Per-job outcomes, in submission order. `None` marks jobs not
    /// reached before a drain.
    pub outcomes: SweepOutcomes,
    /// A SIGTERM arrived and the service drained cleanly.
    pub drained: bool,
}

impl SweepReport {
    /// Process exit code: 0 for a clean (or cleanly drained) sweep, 1
    /// when any job failed or was quarantined.
    pub fn exit_code(&self) -> i32 {
        let failed = self
            .outcomes
            .iter()
            .flatten()
            .any(|outcome| outcome.is_err());
        i32::from(failed && !self.drained)
    }
}

/// Runs the sweep under supervision. Progress goes to stderr; the caller
/// renders the table from the returned report ([`print_sweep`]) so
/// stdout stays byte-identical across crash/recovery histories.
pub fn run_sweep(cfg: &ServiceConfig, jobs: &[JobSpec]) -> std::io::Result<SweepReport> {
    std::fs::create_dir_all(&cfg.state_dir)?;
    let store = JobStore::at(cfg.state_dir.join("cache"), true);
    let (mut journal, records) = Journal::open(&cfg.state_dir.join("journal.log"))?;
    let ledgers = replay(&records);
    let (outcomes, drained) = run_supervised(cfg, &store, &mut journal, &ledgers, jobs, |_, _| {})?;
    Ok(SweepReport { outcomes, drained })
}

/// Renders the sweep table. Deterministic: no paths, no timestamps, no
/// host state — a recovered sweep prints the same bytes as a solo one.
/// Failed rows carry the degradation-mode cell ([`JobError::cell`]):
/// `PANIC`, `DEAD`, `QUAR`, or `SHED`, never a conflated `ERR`.
pub fn print_sweep(jobs: &[JobSpec], report: &SweepReport, out: &mut impl std::io::Write) {
    if report.drained {
        // Nothing goes to the table on a drain; the next invocation
        // finishes the sweep and prints the whole thing.
        return;
    }
    let width = jobs.iter().map(|j| j.id.len()).max().unwrap_or(0).max(3);
    let _ = writeln!(out, "=== glsc-serve sweep: {} job(s) ===", jobs.len());
    let mut ok = 0usize;
    let mut failed = 0usize;
    for (job, outcome) in jobs.iter().zip(&report.outcomes) {
        match outcome {
            Some(Ok(result)) => {
                ok += 1;
                let _ = writeln!(
                    out,
                    "{:<width$}  {:>12} cycles",
                    job.id, result.report.cycles
                );
                if let Some(chaos) = &result.chaos {
                    let _ = writeln!(out, "{:<width$}  chaos: {chaos}", "");
                }
            }
            Some(Err(e)) => {
                failed += 1;
                let _ = writeln!(out, "{:<width$}  {} {}", job.id, e.cell(), e.message());
            }
            None => {
                failed += 1;
                let _ = writeln!(out, "{:<width$}  ERR not reached", job.id);
            }
        }
    }
    let _ = writeln!(out, "== {ok} ok, {failed} failed ==");
}

/// Per-job supervision state threaded across fleet rounds.
struct JobState {
    ledger: JobLedger,
    key: String,
    /// Wall-deadline clock, armed at the first pause of each attempt and
    /// cleared when the attempt fails.
    started: Option<Instant>,
    outcome: Option<Result<JobResult, JobError>>,
}

/// Everything the fleet hooks need, behind one `RefCell`: the pause and
/// completion hooks are separate `FnMut`s but never run reentrantly (the
/// fleet is single-threaded), so a runtime-checked borrow is safe.
struct RoundCtx<'a, F> {
    svc: &'a ServiceConfig,
    store: &'a JobStore,
    journal: &'a mut Journal,
    jobs: &'a [JobSpec],
    states: &'a mut [JobState],
    on_result: &'a mut F,
    /// Jobs that failed this round but still have retry budget.
    retried: Vec<usize>,
    /// First journal write error; halts the fleet and is re-raised once
    /// the round unwinds.
    io_err: Option<std::io::Error>,
    /// A TERM was observed mid-round; in-flight attempts were dropped.
    drained: bool,
}

impl<F: FnMut(usize, &Result<JobResult, JobError>)> RoundCtx<'_, F> {
    /// Journals one failed attempt and applies the quarantine threshold.
    fn record_failure(&mut self, gi: usize, reason: String) {
        let id = &self.jobs[gi].id;
        if let Err(e) = self.journal.append(&JournalRecord::Failed {
            job: id.clone(),
            reason,
        }) {
            self.io_err.get_or_insert(e);
            return;
        }
        let st = &mut self.states[gi];
        st.started = None;
        st.ledger.failures += 1;
        if st.ledger.failures >= self.svc.max_failures {
            if let Err(e) = self.journal.append(&JournalRecord::Quarantined {
                job: id.clone(),
                failures: st.ledger.failures,
            }) {
                self.io_err.get_or_insert(e);
                return;
            }
            eprintln!(
                "[serve] {id}: quarantined after {} failure(s)",
                st.ledger.failures
            );
            let outcome = Err(JobError::Quarantined {
                index: gi,
                failures: st.ledger.failures,
            });
            (self.on_result)(gi, &outcome);
            st.outcome = Some(outcome);
        } else {
            self.retried.push(gi);
        }
    }

    /// Quantum-boundary hook: injected kill, drain signal, deadlines.
    fn on_pause(&mut self, gi: usize, machine: &mut Machine) -> PauseCtl {
        if self.io_err.is_some() {
            return PauseCtl::Halt;
        }
        kill::check_cycles(machine.cycle());
        if signal::term_requested() {
            // Drop every attempt in flight: the journal still holds them
            // as not done, so the next start reruns them from their
            // specs.
            self.drained = true;
            return PauseCtl::Halt;
        }
        let job = &self.jobs[gi];
        let failures = self.states[gi].ledger.failures;
        let started = *self.states[gi].started.get_or_insert_with(Instant::now);
        let cycle_limit = job.deadline_cycles.or(self.svc.deadline_cycles);
        let wall_limit = job.deadline_wall_ms.or(self.svc.deadline_wall_ms);
        let tripped = if cycle_limit.is_some_and(|limit| machine.cycle() >= limit) {
            Some((None, cycle_limit))
        } else if wall_limit.is_some_and(|limit| started.elapsed().as_millis() as u64 >= limit) {
            Some((wall_limit, None))
        } else {
            None
        };
        let Some((wall_ms, cycles)) = tripped else {
            return PauseCtl::Continue;
        };
        let e = JobError::Deadline {
            index: gi,
            attempts: failures + 1,
            wall_ms,
            cycles,
        };
        let reason = format!("{} (stopped at cycle {})", e.message(), machine.cycle());
        eprintln!("[serve] {}: {reason}", job.id);
        self.record_failure(gi, reason);
        PauseCtl::FailJob
    }

    /// Completion hook: validate, persist, journal, stream the result.
    fn on_done(
        &mut self,
        gi: usize,
        machine: &mut Machine,
        result: Result<RunReport, FleetFailure>,
    ) {
        let job = &self.jobs[gi];
        let report = match result {
            Ok(report) => report,
            Err(failure) => {
                let reason = failure.to_string();
                eprintln!("[serve] {}: attempt crashed: {reason}", job.id);
                self.record_failure(gi, reason);
                return;
            }
        };
        // Validation runs supervised too: a panicking validator is a
        // failed attempt, not a dead service.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (job.workload.validate)(machine.mem().backing())
        }));
        let reason = match verdict {
            Ok(Ok(())) => {
                let chaos = machine
                    .mem()
                    .chaos_stats()
                    .map(|stats| format!("{stats:?}"));
                self.store.save(&self.states[gi].key, &report);
                if let Err(e) = self.journal.append(&JournalRecord::Done {
                    job: job.id.clone(),
                    chaos: chaos.clone(),
                }) {
                    self.io_err.get_or_insert(e);
                    return;
                }
                let outcome = Ok(JobResult { report, chaos });
                (self.on_result)(gi, &outcome);
                self.states[gi].outcome = Some(outcome);
                return;
            }
            Ok(Err(e)) => format!("validation failed: {e}"),
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string()),
        };
        eprintln!("[serve] {}: attempt crashed: {reason}", job.id);
        self.record_failure(gi, reason);
    }
}

/// The fleet-routed supervision engine shared by the sweep CLI
/// ([`run_sweep`]) and the protocol front-end: every round routes the
/// still-pending jobs through [`Fleet::run_each_supervised`], each from
/// the start of its spec, then retries failures with seeded backoff
/// until each job is done, quarantined, or the service drains.
///
/// `on_result(index, outcome)` streams each job's final outcome the
/// moment it is durable (journaled + cached), in completion order — the
/// protocol session forwards these as result frames so a client sees
/// results as they land, not at the sweep barrier. Jobs resolved from
/// the journal/cache stream immediately.
///
/// Returns the outcomes in job order plus the drain flag.
pub fn run_supervised<F>(
    svc: &ServiceConfig,
    store: &JobStore,
    journal: &mut Journal,
    ledgers: &HashMap<String, JobLedger>,
    jobs: &[JobSpec],
    mut on_result: F,
) -> std::io::Result<(SweepOutcomes, bool)>
where
    F: FnMut(usize, &Result<JobResult, JobError>),
{
    // Resolve what the journal already settled; journal acceptance for
    // the rest.
    let mut states: Vec<JobState> = Vec::with_capacity(jobs.len());
    for (gi, job) in jobs.iter().enumerate() {
        let mut ledger = ledgers.get(&job.id).cloned().unwrap_or_default();
        let key = job.cache_key();
        let mut outcome = None;
        if ledger.quarantined {
            outcome = Some(Err(JobError::Quarantined {
                index: gi,
                failures: ledger.failures,
            }));
        } else if let Some(chaos) = &ledger.done {
            if let Some(report) = store.load(&key) {
                // A resubmission of a finished job journaled a fresh
                // `Submitted`; close it out, or the job replays as
                // pending at every boot and its stale queue slot sheds
                // new work forever.
                if ledger.pending.is_some() {
                    journal.append(&JournalRecord::Done {
                        job: job.id.clone(),
                        chaos: chaos.clone(),
                    })?;
                    ledger.pending = None;
                }
                outcome = Some(Ok(JobResult {
                    report,
                    chaos: chaos.clone(),
                }));
            } else {
                // Done in the journal but the cached report is gone or
                // corrupt: re-run — correctness never depends on the
                // cache surviving.
                eprintln!(
                    "[serve] {}: done in journal but report missing; re-running",
                    job.id
                );
            }
        }
        if outcome.is_none() && !ledger.accepted {
            journal.append(&JournalRecord::Accepted {
                job: job.id.clone(),
            })?;
            ledger.accepted = true;
        }
        if let Some(o) = &outcome {
            on_result(gi, o);
        }
        states.push(JobState {
            ledger,
            key,
            started: None,
            outcome,
        });
    }

    let mut drained = false;
    loop {
        let pending: Vec<usize> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.outcome.is_none())
            .map(|(i, _)| i)
            .collect();
        if pending.is_empty() || drained {
            break;
        }
        if signal::term_requested() {
            drained = true;
            break;
        }

        // Mount the round: every attempt starts from its spec, sharing
        // published copy-on-write dataset bases.
        let mut published: HashMap<u64, Arc<BackingBase>> = HashMap::new();
        let mut fleet_jobs = Vec::with_capacity(pending.len());
        for &gi in &pending {
            let job = &jobs[gi];
            let base = published
                .entry(job.workload.image.fingerprint())
                .or_insert_with(|| job.workload.image.publish());
            let mut fj = FleetJob::new(job.cfg.clone(), job.workload.program.clone())
                .with_base(Arc::clone(base));
            if let Some(seed) = job.chaos {
                fj = fj.with_fault_plan(FaultPlan::new(ChaosConfig::from_seed(seed)));
            }
            fleet_jobs.push(fj);
        }

        let ctx = RefCell::new(RoundCtx {
            svc,
            store,
            journal,
            jobs,
            states: &mut states,
            on_result: &mut on_result,
            retried: Vec::new(),
            io_err: None,
            drained: false,
        });
        Fleet::new()
            .with_quantum(FLEET_QUANTUM)
            .with_width(svc.fleet_width)
            .run_each_supervised(
                fleet_jobs,
                |local, machine| ctx.borrow_mut().on_pause(pending[local], machine),
                |local, machine, result| ctx.borrow_mut().on_done(pending[local], machine, result),
            );
        let round = ctx.into_inner();
        if let Some(e) = round.io_err {
            return Err(e);
        }
        if round.drained {
            drained = true;
            break;
        }
        if round.retried.is_empty() {
            continue;
        }
        // One backoff between rounds: each retried job reports its own
        // seeded delay, the fleet sleeps the longest of them.
        let mut delay = 0u64;
        for &gi in &round.retried {
            let id = &jobs[gi].id;
            let failures = states[gi].ledger.failures;
            let d = backoff_jittered_ms(svc.seed, id, failures);
            eprintln!(
                "[serve] {id}: retrying (attempt {}) after {d}ms",
                failures + 1
            );
            delay = delay.max(d);
        }
        std::thread::sleep(std::time::Duration::from_millis(delay));
    }
    Ok((states.into_iter().map(|s| s.outcome).collect(), drained))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("glsc-serve-svc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fig6_job() -> JobSpec {
        JobSpec::kernel("HIP", Dataset::Tiny, Variant::Glsc, (1, 2), 4, None).unwrap()
    }

    #[test]
    fn sweep_matches_unsupervised_run() {
        let _flag = signal::term_flag_shared();
        let dir = tmp_dir("clean");
        let cfg = ServiceConfig::new(dir.clone());
        let jobs = vec![fig6_job()];
        let report = run_sweep(&cfg, &jobs).unwrap();
        let solo = glsc_kernels::run_workload(&jobs[0].workload, &jobs[0].cfg).unwrap();
        let got = report.outcomes[0].as_ref().unwrap().as_ref().unwrap();
        assert_eq!(got.report, solo.report);
        assert_eq!(got.chaos, None);
        assert_eq!(report.exit_code(), 0);
        assert!(
            !dir.join("checkpoints").exists(),
            "the service must not write mid-run checkpoints"
        );

        // A second sweep over the same state dir serves from the store
        // and prints the same table.
        let mut first = Vec::new();
        print_sweep(&jobs, &report, &mut first);
        let report2 = run_sweep(&cfg, &jobs).unwrap();
        let mut second = Vec::new();
        print_sweep(&jobs, &report2, &mut second);
        assert_eq!(first, second);
        assert!(!first.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wedged_job_deadlines_then_quarantines_and_sweep_degrades() {
        let _flag = signal::term_flag_shared();
        let dir = tmp_dir("wedge");
        let mut cfg = ServiceConfig::new(dir.clone());
        cfg.max_failures = 3;
        let jobs = vec![JobSpec::wedged(), fig6_job()];
        let report = run_sweep(&cfg, &jobs).unwrap();
        match report.outcomes[0].as_ref().unwrap() {
            Err(JobError::Quarantined { failures, .. }) => assert_eq!(*failures, 3),
            other => panic!("wedge ended as {other:?}"),
        }
        // The healthy job still completed; the sweep exits nonzero.
        assert!(report.outcomes[1].as_ref().unwrap().is_ok());
        assert_eq!(report.exit_code(), 1);
        let mut table = Vec::new();
        print_sweep(&jobs, &report, &mut table);
        let text = String::from_utf8(table).unwrap();
        assert!(
            text.contains("QUAR quarantined after 3 failure(s)"),
            "{text}"
        );
        assert!(text.contains("cycles"), "{text}");
        assert!(text.contains("== 1 ok, 1 failed =="), "{text}");

        // The journal pins the exact failure history: 3 deadline
        // failures, then quarantine; and a re-run skips the wedge
        // immediately (still quarantined, no new attempts).
        let (_, records) = Journal::open(&dir.join("journal.log")).unwrap();
        let fails = records
            .iter()
            .filter(|r| matches!(r, JournalRecord::Failed { job, .. } if job == "WEDGE"))
            .count();
        assert_eq!(fails, 3);
        let before = records.len();
        let report2 = run_sweep(&cfg, &jobs).unwrap();
        assert!(matches!(
            report2.outcomes[0].as_ref().unwrap(),
            Err(JobError::Quarantined { .. })
        ));
        let (_, records2) = Journal::open(&dir.join("journal.log")).unwrap();
        let new_wedge_records = records2[before..]
            .iter()
            .filter(|r| r.job() == "WEDGE")
            .count();
        assert_eq!(new_wedge_records, 0, "quarantined job was retried");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wall_deadline_is_a_per_attempt_budget() {
        // Regression: the wall clock used to start at a job's first pause
        // and never restart, so once one attempt had used up the budget
        // every retry tripped at its own first pause and the job was
        // quarantined without its retries getting any run time. Each
        // attempt reruns from cycle 0, so each needs the whole budget.
        let _flag = signal::term_flag_shared();
        let dir = tmp_dir("wall");
        let mut cfg = ServiceConfig::new(dir.clone());
        cfg.max_failures = 3;
        let mut wedge = JobSpec::wedged();
        wedge.deadline_cycles = None;
        wedge.deadline_wall_ms = Some(30);
        let report = run_sweep(&cfg, &[wedge]).unwrap();
        assert!(
            matches!(
                report.outcomes[0],
                Some(Err(JobError::Quarantined { failures: 3, .. }))
            ),
            "{:?}",
            report.outcomes[0]
        );
        let (_, records) = Journal::open(&dir.join("journal.log")).unwrap();
        let stops: Vec<u64> = records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Failed { reason, .. } => {
                    assert!(reason.contains("30 ms wall-clock deadline"), "{reason}");
                    let (_, cycle) = reason.rsplit_once("stopped at cycle ")?;
                    cycle.trim_end_matches(')').parse().ok()
                }
                _ => None,
            })
            .collect();
        assert_eq!(stops.len(), 3, "{records:?}");
        for (attempt, cycle) in stops.iter().enumerate() {
            assert!(
                *cycle > FLEET_QUANTUM,
                "attempt {} tripped at its first pause (cycle {cycle})",
                attempt + 1
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_drops_in_flight_work_and_next_run_finishes_identically() {
        let _flag = signal::term_flag_exclusive();
        let dir = tmp_dir("drain");
        let cfg = ServiceConfig::new(dir.clone());
        let jobs = vec![fig6_job()];

        // First run drains immediately: the TERM flag is set before the
        // first round, so the sweep reports a drain instead of a result.
        signal::request_term();
        let drained = run_sweep(&cfg, &jobs).unwrap();
        assert!(drained.drained);
        assert!(drained.outcomes[0].is_none());
        assert_eq!(drained.exit_code(), 0);
        let mut table = Vec::new();
        print_sweep(&jobs, &drained, &mut table);
        assert!(table.is_empty(), "drained sweep wrote to the table");

        // Clear the flag (tests share the process-global) and finish.
        super::signal::clear_term_for_tests();
        let report = run_sweep(&cfg, &jobs).unwrap();
        let got = report.outcomes[0].as_ref().unwrap().as_ref().unwrap();
        let solo = glsc_kernels::run_workload(&jobs[0].workload, &jobs[0].cfg).unwrap();
        assert_eq!(got.report, solo.report, "rerun after the drain diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_job_reports_counters_and_resumes_bit_identically() {
        let _flag = signal::term_flag_shared();
        let dir = tmp_dir("chaos");
        let cfg = ServiceConfig::new(dir.clone());
        let jobs =
            vec![
                JobSpec::kernel("GBC", Dataset::Tiny, Variant::Glsc, (2, 2), 4, Some(0x5EED))
                    .unwrap(),
            ];
        let report = run_sweep(&cfg, &jobs).unwrap();
        let got = report.outcomes[0].as_ref().unwrap().as_ref().unwrap();
        let chaos = got.chaos.as_ref().expect("chaos job must report counters");
        assert!(chaos.contains("injection_points"), "{chaos}");

        // Re-sweeping serves the cached report with the *journaled*
        // chaos line — byte-identical table.
        let mut first = Vec::new();
        print_sweep(&jobs, &report, &mut first);
        let report2 = run_sweep(&cfg, &jobs).unwrap();
        let mut second = Vec::new();
        print_sweep(&jobs, &report2, &mut second);
        assert_eq!(first, second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_stream_as_they_become_durable() {
        let _flag = signal::term_flag_shared();
        let dir = tmp_dir("stream");
        let cfg = ServiceConfig::new(dir.clone());
        let jobs = vec![fig6_job()];
        std::fs::create_dir_all(&cfg.state_dir).unwrap();
        let store = JobStore::at(cfg.state_dir.join("cache"), true);
        let (mut journal, records) = Journal::open(&cfg.state_dir.join("journal.log")).unwrap();
        let ledgers = replay(&records);
        let mut streamed = Vec::new();
        let (outcomes, drained) =
            run_supervised(&cfg, &store, &mut journal, &ledgers, &jobs, |gi, o| {
                streamed.push((gi, o.is_ok()));
            })
            .unwrap();
        assert!(!drained);
        assert_eq!(streamed, vec![(0, true)]);
        assert!(outcomes[0].as_ref().unwrap().is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
