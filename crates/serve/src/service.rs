//! The supervisor behind the session: runs admitted jobs durably.
//!
//! Every job reaches it through the one front door, a protocol session
//! ([`crate::session`]): a `JobSpec` is the lowering of an admitted
//! `WireJobSpec`. The supervisor runs every round of attempts through
//! [`glsc_sim::Fleet`], one job at a time in submission order, each on a
//! fresh machine, in slices of `FLEET_QUANTUM` (1,024) cycles with a
//! supervision pause between slices. Every outcome is write-ahead
//! journaled (`done | quarantined`, with `failed` marks in between; the
//! session journals `submitted`); a finished report goes to the result
//! store before its `done` record is appended.
//!
//! Recovery is a rerun. A restart — crash or drain — replays the
//! journal, serves every `done` job from the result store, and reruns
//! every other job from its spec (a chaos job from its fault-plan seed).
//! Simulations are deterministic, so the output is byte-identical to an
//! uninterrupted run (the kill-drill oracle in `tests/` pins this for
//! every kernel × Fig. 6 shape). Nothing about a run in flight is
//! persisted: no job is long enough for a mid-run checkpoint to cost
//! less than simply simulating it again.
//!
//! Failure policy: a panicking, sim-erroring, or deadline-tripping
//! attempt appends a `Failed` record and retries next round after the
//! seeded jittered backoff; a panic is contained to its job (machine
//! dropped, the round goes on to the next job). A job whose failure count
//! (across restarts — the journal remembers) reaches `max_failures` is
//! quarantined and reported as a `QUAR` row while the rest of the sweep
//! completes, with a nonzero exit.

use crate::journal::{JobLedger, Journal, JournalRecord};
use crate::{kill, signal};
use glsc_bench::store::{cfg_fingerprint, job_key};
use glsc_bench::{backoff_jittered_ms, JobError, JobStore};
use glsc_kernels::Workload;
use glsc_sim::{
    BackingBase, ChaosConfig, FaultPlan, Fleet, FleetFailure, FleetJob, Machine, MachineConfig,
    PauseCtl, RunReport,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Simulated cycles the running job advances between supervision
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
    /// attempt starts at cycle 0, so a job that needs more cycles trips
    /// this on every attempt, burns its failure budget, and quarantines.
    pub deadline_cycles: Option<u64>,
    /// Failures (across restarts) before a job is quarantined.
    pub max_failures: u32,
    /// Seed for the deterministic retry-backoff jitter.
    pub seed: u64,
    /// Admission-queue capacity for the protocol front-end; submissions
    /// past this bound are shed (see [`crate::queue`]).
    pub queue_capacity: usize,
}

impl ServiceConfig {
    /// Defaults: no deadlines, quarantine after 3 failures, seed 0, queue
    /// capacity 64.
    pub fn new(state_dir: PathBuf) -> Self {
        Self {
            state_dir,
            deadline_wall_ms: None,
            deadline_cycles: None,
            max_failures: 3,
            seed: 0,
            queue_capacity: 64,
        }
    }
}

/// One supervised simulation: the lowering of an admitted wire spec
/// (`session::spec_to_job` is its only constructor).
pub(crate) struct JobSpec {
    /// Stable, filesystem-safe id (the wire spec's); names the job in the
    /// journal, the result cache, and reply frames.
    pub id: String,
    /// What to simulate and how to validate it.
    pub workload: Workload,
    /// Machine to run it on.
    pub cfg: MachineConfig,
    /// Fault-plan seed: `Some` runs the job under seeded chaos and
    /// reports the injection counters alongside the result.
    pub chaos: Option<u64>,
    /// Per-job cycle deadline, overriding the service-wide one.
    pub deadline_cycles: Option<u64>,
    /// Per-job wall-clock deadline, overriding the service-wide one.
    pub deadline_wall_ms: Option<u64>,
}

impl JobSpec {
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
pub(crate) struct JobResult {
    /// The simulation report (bit-identical to an unsupervised run).
    pub report: RunReport,
    /// Rendered chaos counters when the job ran under a fault plan.
    pub chaos: Option<String>,
}

/// Per-job outcomes in submission order; `None` marks jobs not reached
/// before a drain.
pub(crate) type SweepOutcomes = Vec<Option<Result<JobResult, JobError>>>;

/// Per-job supervision state threaded across rounds.
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
    /// First journal write error; halts the round and is re-raised once
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

/// The supervision engine behind a session's `Run`: every round runs
/// the still-pending jobs through [`Fleet::run_each_supervised`] one at
/// a time, in submission order, each from the start of its spec, then
/// retries failures with seeded backoff until each job is done,
/// quarantined, or the service drains.
///
/// `on_result(index, outcome)` streams each job's final outcome the
/// moment it is durable (journaled + cached), in completion order — the
/// protocol session forwards these as result frames so a client sees
/// results as they land, not at the sweep barrier. Jobs resolved from
/// the journal/cache stream immediately.
///
/// Returns the outcomes in job order plus the drain flag.
pub(crate) fn run_supervised<F>(
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
    // Resolve what the journal already settled; the rest run.
    let mut states: Vec<JobState> = Vec::with_capacity(jobs.len());
    for (gi, job) in jobs.iter().enumerate() {
        let ledger = ledgers.get(&job.id).cloned().unwrap_or_default();
        let key = job.cache_key();
        let mut outcome = None;
        if ledger.quarantined {
            outcome = Some(Err(JobError::Quarantined {
                index: gi,
                failures: ledger.failures,
            }));
        } else if let Some(chaos) = &ledger.done {
            if let Some(report) = store.load(&key) {
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
        // seeded delay, the round sleeps the longest of them.
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
    use crate::journal::replay;
    use crate::proto::{print_table, read_message, write_message, Reply, Request};
    use crate::session::{run_session, spec_to_job, SessionEnd};
    use glsc_bench::codec::decode_report;
    use glsc_bench::jobspec::WireJobSpec;
    use glsc_kernels::{Dataset, Variant};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("glsc-serve-svc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn hip(shape: (usize, usize)) -> WireJobSpec {
        WireJobSpec::kernel("HIP", Dataset::Tiny, Variant::Glsc, shape, 4)
    }

    fn fig6_job() -> JobSpec {
        spec_to_job(&hip((1, 2))).unwrap()
    }

    /// The request frames a sweep of `specs` sends: one `Submit` each,
    /// then the `Run` barrier.
    fn requests(specs: &[WireJobSpec]) -> Vec<u8> {
        let mut input = Vec::new();
        for spec in specs {
            let submit = Request::Submit {
                priority: 0,
                spec: spec.clone(),
            };
            write_message(&mut input, &submit).unwrap();
        }
        write_message(&mut input, &Request::Run).unwrap();
        input
    }

    /// One session over `input`: how it ended, and every reply frame.
    fn session(cfg: &ServiceConfig, input: &mut impl std::io::Read) -> (SessionEnd, Vec<Reply>) {
        let mut output = Vec::new();
        let end = run_session(cfg, input, &mut output).unwrap();
        let mut frames = &output[..];
        let mut replies = Vec::new();
        while let Some(reply) = read_message::<Reply>(&mut frames).unwrap() {
            replies.push(reply);
        }
        (end, replies)
    }

    /// A sweep through the front door, as the `sweep` command runs it.
    fn sweep(cfg: &ServiceConfig, specs: &[WireJobSpec]) -> (SessionEnd, Vec<Reply>) {
        session(cfg, &mut &requests(specs)[..])
    }

    /// The sweep table and its failed-row count (the `sweep` command
    /// exits 1 exactly when that count is nonzero).
    fn table(specs: &[WireJobSpec], replies: &[Reply]) -> (String, usize) {
        let ids: Vec<String> = specs.iter().map(WireJobSpec::id).collect();
        let mut out = Vec::new();
        let failed = print_table(&ids, replies, &mut out);
        (String::from_utf8(out).unwrap(), failed)
    }

    /// The result frame streamed for `id`, if any.
    fn outcome<'a>(replies: &'a [Reply], id: &str) -> Option<&'a Reply> {
        replies.iter().find(|r| {
            matches!(r, Reply::JobDone { id: got, .. } | Reply::JobFailed { id: got, .. } if got == id)
        })
    }

    /// The `QUAR` frame for `id`: its detail, which names the failure
    /// count.
    fn quarantined<'a>(replies: &'a [Reply], id: &str) -> &'a str {
        match outcome(replies, id) {
            Some(Reply::JobFailed { label, detail, .. }) if label == "QUAR" => detail,
            other => panic!("{id} ended as {other:?}"),
        }
    }

    /// The report streamed for `id`, decoded, with its chaos line.
    fn done(replies: &[Reply], id: &str) -> (RunReport, Option<String>) {
        match outcome(replies, id) {
            Some(Reply::JobDone { report, chaos, .. }) => {
                (decode_report(report).unwrap(), chaos.clone())
            }
            other => panic!("{id} ended as {other:?}"),
        }
    }

    #[test]
    fn sweep_matches_unsupervised_run() {
        let _flag = signal::term_flag_shared();
        let dir = tmp_dir("clean");
        let cfg = ServiceConfig::new(dir.clone());
        let specs = [hip((1, 2))];
        let (end, replies) = sweep(&cfg, &specs);
        assert_eq!(end, SessionEnd::Closed);
        let job = fig6_job();
        let solo = glsc_kernels::run_workload(&job.workload, &job.cfg).unwrap();
        let (report, chaos) = done(&replies, &job.id);
        assert_eq!(report, solo.report);
        assert_eq!(chaos, None);
        let (first, failed) = table(&specs, &replies);
        assert_eq!(failed, 0);
        assert!(
            !dir.join("checkpoints").exists(),
            "the service must not write mid-run checkpoints"
        );

        // A second sweep over the same state dir serves from the store
        // and prints the same table.
        let (_, replies2) = sweep(&cfg, &specs);
        assert_eq!(table(&specs, &replies2).0, first);
        assert!(!first.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_trips_then_quarantines_and_sweep_degrades() {
        // HIP Tiny GLSC needs 32,402 cycles at 1x1 and 8,766 at 1x4, so
        // under a 20,000-cycle budget the first trips on every attempt
        // and the second finishes.
        let _flag = signal::term_flag_shared();
        let dir = tmp_dir("deadline");
        let mut cfg = ServiceConfig::new(dir.clone());
        cfg.max_failures = 3;
        let specs: Vec<WireJobSpec> = [(1, 1), (1, 4)]
            .into_iter()
            .map(|shape| WireJobSpec {
                deadline_cycles: Some(20_000),
                ..hip(shape)
            })
            .collect();
        let poison = specs[0].id();
        let (_, replies) = sweep(&cfg, &specs);
        assert_eq!(
            quarantined(&replies, &poison),
            "quarantined after 3 failure(s)"
        );
        // The healthy job still completed; the sweep exits nonzero.
        done(&replies, &specs[1].id());
        let (text, failed) = table(&specs, &replies);
        assert_eq!(failed, 1);
        assert!(
            text.contains("QUAR quarantined after 3 failure(s)"),
            "{text}"
        );
        assert!(text.contains("cycles"), "{text}");
        assert!(text.contains("== 1 ok, 1 failed =="), "{text}");

        // The journal pins the exact failure history: 3 deadline
        // failures, then quarantine; and a re-run skips the job
        // immediately (still quarantined, no new attempts).
        let (_, records) = Journal::open(&dir.join("journal.log")).unwrap();
        let fails = records
            .iter()
            .filter(|r| matches!(r, JournalRecord::Failed { job, .. } if *job == poison))
            .count();
        assert_eq!(fails, 3);
        let before = records.len();
        let (_, replies2) = sweep(&cfg, &specs);
        quarantined(&replies2, &poison);
        let (_, records2) = Journal::open(&dir.join("journal.log")).unwrap();
        // The resubmission itself is journaled; it is not a retry.
        let new_poison_records = records2[before..]
            .iter()
            .filter(|r| r.job() == poison && !matches!(r, JournalRecord::Submitted { .. }))
            .count();
        assert_eq!(new_poison_records, 0, "quarantined job was retried");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wall_deadline_is_a_per_attempt_budget() {
        // Regression: the wall clock used to start at a job's first pause
        // and never restart, so once one attempt had used up the budget
        // every retry tripped at its own first pause and the job was
        // quarantined without its retries getting any run time. Each
        // attempt reruns from cycle 0, so each needs the whole budget.
        // SMC Base at dataset B on 32x8 takes about 300 ms of host time
        // in a release build, ten times the budget. Simulated cycles are
        // no guide: idle windows are skipped, so TMS Base at dataset A,
        // 1x1 (2,069,233 cycles) can finish inside 30 ms.
        let _flag = signal::term_flag_shared();
        let dir = tmp_dir("wall");
        let mut cfg = ServiceConfig::new(dir.clone());
        cfg.max_failures = 3;
        let spec = WireJobSpec {
            deadline_wall_ms: Some(30),
            ..WireJobSpec::kernel("SMC", Dataset::B, Variant::Base, (32, 8), 4)
        };
        let (_, replies) = sweep(&cfg, std::slice::from_ref(&spec));
        assert_eq!(
            quarantined(&replies, &spec.id()),
            "quarantined after 3 failure(s)"
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

    /// A request stream that raises the drain flag once the session has
    /// read its last byte, as a SIGTERM arriving right after the `Run`
    /// barrier would.
    struct TermAtEnd<'a>(&'a [u8]);

    impl std::io::Read for TermAtEnd<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.read(buf)?;
            if self.0.is_empty() {
                signal::request_term();
            }
            Ok(n)
        }
    }

    #[test]
    fn drain_drops_in_flight_work_and_next_run_finishes_identically() {
        let _flag = signal::term_flag_exclusive();
        let dir = tmp_dir("drain");
        let cfg = ServiceConfig::new(dir.clone());
        let specs = [hip((1, 2))];
        let id = specs[0].id();

        // First run drains: the TERM flag goes up as the session reads
        // the `Run` barrier, so the job is journaled as submitted but the
        // first round never starts. A drained session streams no result
        // (the `sweep` command prints nothing for it and exits 0).
        let input = requests(&specs);
        let (end, replies) = session(&cfg, &mut TermAtEnd(&input));
        assert_eq!(end, SessionEnd::Drained);
        assert!(outcome(&replies, &id).is_none(), "{replies:?}");
        let (_, records) = Journal::open(&dir.join("journal.log")).unwrap();
        assert!(replay(&records)[&id].pending.is_some());

        // Clear the flag (tests share the process-global) and finish.
        super::signal::clear_term_for_tests();
        let (_, replies) = sweep(&cfg, &specs);
        let job = fig6_job();
        let solo = glsc_kernels::run_workload(&job.workload, &job.cfg).unwrap();
        assert_eq!(
            done(&replies, &id).0,
            solo.report,
            "rerun after the drain diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_job_reports_counters_and_resumes_bit_identically() {
        let _flag = signal::term_flag_shared();
        let dir = tmp_dir("chaos");
        let cfg = ServiceConfig::new(dir.clone());
        let specs = [WireJobSpec {
            chaos: Some(0x5EED),
            ..WireJobSpec::kernel("GBC", Dataset::Tiny, Variant::Glsc, (2, 2), 4)
        }];
        let (_, replies) = sweep(&cfg, &specs);
        let (_, chaos) = done(&replies, &specs[0].id());
        let chaos = chaos.expect("chaos job must report counters");
        assert!(chaos.contains("injection_points"), "{chaos}");

        // Re-sweeping serves the cached report with the *journaled*
        // chaos line — byte-identical table.
        let first = table(&specs, &replies).0;
        let (_, replies2) = sweep(&cfg, &specs);
        assert_eq!(table(&specs, &replies2).0, first);
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

    #[test]
    fn jobs_run_one_at_a_time_in_submission_order() {
        // A long 1x1 job ahead of two short 4x4 jobs: each job runs to its
        // outcome before the next starts, so results stream in submission
        // order although the later jobs need a tenth of the cycles.
        let _flag = signal::term_flag_shared();
        let dir = tmp_dir("order");
        let cfg = ServiceConfig::new(dir.clone());
        let jobs: Vec<JobSpec> = [
            hip((1, 1)),
            WireJobSpec::kernel("HIP", Dataset::Tiny, Variant::Base, (4, 4), 4),
            hip((4, 4)),
        ]
        .iter()
        .map(|spec| spec_to_job(spec).unwrap())
        .collect();
        std::fs::create_dir_all(&cfg.state_dir).unwrap();
        let store = JobStore::at(cfg.state_dir.join("cache"), true);
        let (mut journal, records) = Journal::open(&cfg.state_dir.join("journal.log")).unwrap();
        let ledgers = replay(&records);
        let mut order = Vec::new();
        let (outcomes, drained) =
            run_supervised(&cfg, &store, &mut journal, &ledgers, &jobs, |gi, o| {
                assert!(o.is_ok(), "job {gi} failed: {:?}", o.as_ref().err());
                order.push(gi);
            })
            .unwrap();
        assert!(!drained);
        let cycles: Vec<u64> = outcomes
            .iter()
            .map(|o| o.as_ref().unwrap().as_ref().unwrap().report.cycles)
            .collect();
        assert!(
            cycles[0] > 4 * (cycles[1] + cycles[2]),
            "the first job must be the long one: {cycles:?}"
        );
        assert_eq!(order, [0, 1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
