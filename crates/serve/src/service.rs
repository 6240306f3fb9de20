//! The supervisor behind the session: runs admitted jobs durably.
//!
//! Every job reaches it through the one front door, a protocol session
//! ([`crate::session`]): a `JobSpec` is the lowering of an admitted
//! `WireJobSpec`. The supervisor is one loop over the jobs the journal
//! has not settled, in submission order. Each runs on a fresh
//! [`Machine`], mounted as the figure harness mounts a job (image,
//! program, and a fault plan for a chaos job), and advances in
//! `SLICE_CYCLES` (1,024-cycle) slices with a supervision pause between
//! slices. Every outcome is write-ahead journaled (`done | quarantined`;
//! the session journals `submitted`) through `journal::journal_apply`,
//! which folds the record into the session's ledgers by the rule replay
//! uses; a finished report goes to the result store before its `done`
//! record is appended.
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
//! Failure policy: one attempt. A panic, a simulator error, a rejecting
//! or panicking validator, or a tripped cycle or wall-clock deadline
//! appends one `Quarantined` record, and the job streams a `QUAR` row
//! while the rest of the sweep completes, with a nonzero exit. A panic
//! is contained to its job (machine dropped, the loop goes on to the
//! next job). Jobs are deterministic, so a second attempt would fail the
//! same way; only a wall-clock trip depends on the host, and it is
//! quarantined on its first occurrence too. A quarantined job never runs
//! again in that state dir: a restart or a resubmission is answered from
//! the journal, and only a fresh state dir runs it again.

use crate::journal::{journal_apply, JobLedger, Journal, JournalRecord};
use crate::{kill, signal};
use glsc_bench::store::{cfg_fingerprint, job_key};
use glsc_bench::{JobError, JobStore};
use glsc_kernels::Workload;
use glsc_sim::{ChaosConfig, FaultPlan, Machine, MachineConfig, RunReport, SlicedRun};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Simulated cycles the running job advances between supervision
/// pauses. Results do not depend on it; it only sets how promptly a
/// drain, a deadline, or an injected `cycles:` kill is noticed — short
/// enough to land inside the shortest tiny job, long enough that the
/// pause costs nothing measurable.
const SLICE_CYCLES: u64 = 1_024;

/// Service-wide knobs.
#[derive(Debug)]
pub struct ServiceConfig {
    /// Root of all durable state: `journal.log` and `cache/`.
    pub state_dir: PathBuf,
    /// Per-job wall-clock budget, counted from the job's first
    /// supervision pause; `None` = unlimited.
    pub deadline_wall_ms: Option<u64>,
    /// Per-job simulated-cycle budget; `None` = unlimited. A job that
    /// needs more cycles trips it and is quarantined.
    pub deadline_cycles: Option<u64>,
    /// Admission-queue capacity for the protocol front-end; submissions
    /// past this bound are shed (see [`crate::queue`]).
    pub queue_capacity: usize,
}

impl ServiceConfig {
    /// Defaults: no deadlines, queue capacity 64.
    pub fn new(state_dir: PathBuf) -> Self {
        Self {
            state_dir,
            deadline_wall_ms: None,
            deadline_cycles: None,
            queue_capacity: 64,
        }
    }
}

/// Writes one supervisor log line to stderr. Unit tests also keep the
/// lines their own thread logs, to count what an operator would see.
fn log(line: String) {
    #[cfg(test)]
    tests::LOG.with(|log| log.borrow_mut().push(line.clone()));
    eprintln!("[serve] {line}");
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
    /// The job's result-store key, by the harness's rule: the id (which
    /// ends in `-chaos<seed>` for a chaos job) and the two fingerprints.
    fn cache_key(&self) -> String {
        job_key(
            &[&self.id],
            self.workload.fingerprint(),
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

/// The supervision loop behind a session's `Run`: one pass of the jobs
/// the journal has not settled, one at a time, in submission order, each
/// from the start of its spec. Each ends done, quarantined, or — on a
/// drain — unsettled, and every settling record goes through
/// [`journal_apply`], so `ledgers` always says what a restart would
/// replay.
///
/// `on_result(index, outcome)` streams each job's final outcome the
/// moment it is durable (journaled + cached), in completion order — the
/// protocol session forwards these as result frames so a client sees
/// results as they land, not at the sweep barrier. Jobs resolved from
/// the journal/cache stream immediately.
///
/// Returns how many jobs a drain left unsettled: 0 when the pass ran
/// every job to an outcome.
pub(crate) fn run_supervised<F>(
    svc: &ServiceConfig,
    store: &JobStore,
    journal: &mut Journal,
    ledgers: &mut HashMap<String, JobLedger>,
    jobs: &[JobSpec],
    mut on_result: F,
) -> std::io::Result<usize>
where
    F: FnMut(usize, &Result<JobResult, JobError>),
{
    // Stream what the journal already settled; the rest run.
    let mut pending = Vec::new();
    for (gi, job) in jobs.iter().enumerate() {
        let ledger = ledgers.get(&job.id);
        if ledger.is_some_and(|l| l.quarantined) {
            on_result(gi, &Err(JobError::Quarantined { index: gi }));
            continue;
        }
        if let Some(chaos) = ledger.and_then(|l| l.done.clone()) {
            if let Some(report) = store.load(&job.cache_key()) {
                on_result(gi, &Ok(JobResult { report, chaos }));
                continue;
            }
            // Done in the journal but the cached report is gone or
            // corrupt: re-run — correctness never depends on the cache
            // surviving.
            log(format!(
                "{}: done in journal but report missing; re-running",
                job.id
            ));
        }
        pending.push(gi);
    }
    // A drain before the run starts leaves every pending job unsettled.
    if signal::term_requested() {
        return Ok(pending.len());
    }

    for (ran, &gi) in pending.iter().enumerate() {
        let job = &jobs[gi];
        let Some(run) = run_job(svc, job) else {
            // A drain dropped the run in flight: the journal still holds
            // it and every later job as not done, so the next start
            // reruns them from their specs.
            return Ok(pending.len() - ran);
        };
        let outcome = match run {
            Ok(result) => {
                store.save(&job.cache_key(), &result.report);
                let done = JournalRecord::Done {
                    job: job.id.clone(),
                    chaos: result.chaos.clone(),
                };
                journal_apply(journal, ledgers, done)?;
                Ok(result)
            }
            Err(reason) => {
                // The reason goes to the log only; the row renders from
                // the record, so a replayed row matches the live one.
                log(format!("{}: quarantined: {reason}", job.id));
                let quarantined = JournalRecord::Quarantined {
                    job: job.id.clone(),
                    failures: 1,
                };
                journal_apply(journal, ledgers, quarantined)?;
                Err(JobError::Quarantined { index: gi })
            }
        };
        on_result(gi, &outcome);
    }
    Ok(0)
}

/// Runs one job on a fresh machine, mounted as the figure harness mounts
/// it, in `SLICE_CYCLES` slices. Between slices it checks, in order: an
/// injected `cycles:` kill, the drain flag, the cycle deadline, and the
/// wall deadline, whose clock starts at the first pause. One
/// `catch_unwind` covers the slices and the validator, so a panic in
/// either fails the job, not the service.
///
/// Returns `None` when a drain dropped the run, and otherwise the result
/// or the reason the run failed.
fn run_job(svc: &ServiceConfig, job: &JobSpec) -> Option<Result<JobResult, String>> {
    let mut machine = Machine::new(job.cfg.clone());
    job.workload.image.apply(machine.mem_mut().backing_mut());
    machine.load_program(job.workload.program.clone());
    if let Some(seed) = job.chaos {
        let plan = FaultPlan::new(ChaosConfig::from_seed(seed));
        machine.mem_mut().install_fault_plan(plan);
    }
    let cycle_limit = job.deadline_cycles.or(svc.deadline_cycles);
    let wall_limit = job.deadline_wall_ms.or(svc.deadline_wall_ms);
    let supervised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut run = SlicedRun::new(&machine);
        let mut started = None;
        let report = loop {
            match machine.run_for(&mut run, SLICE_CYCLES) {
                Ok(Some(report)) => break report,
                Ok(None) => {}
                Err(e) => return Some(Err(format!("simulation failed: {e}"))),
            }
            let cycle = machine.cycle();
            kill::check_cycles(cycle);
            if signal::term_requested() {
                return None;
            }
            let started = *started.get_or_insert_with(Instant::now);
            let trip = if let Some(limit) = cycle_limit.filter(|&limit| cycle >= limit) {
                format!("exceeded the {limit}-cycle deadline")
            } else if let Some(ms) =
                wall_limit.filter(|&ms| started.elapsed().as_millis() as u64 >= ms)
            {
                format!("exceeded the {ms} ms wall-clock deadline")
            } else {
                continue;
            };
            return Some(Err(format!("{trip} (stopped at cycle {cycle})")));
        };
        Some(match (job.workload.validate)(machine.mem().backing()) {
            Ok(()) => Ok(JobResult {
                report,
                chaos: machine
                    .mem()
                    .chaos_stats()
                    .map(|stats| format!("{stats:?}")),
            }),
            Err(e) => Err(format!("validation failed: {e}")),
        })
    }));
    supervised.unwrap_or_else(|payload| {
        Some(Err(payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())))
    })
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
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    thread_local! {
        /// The supervisor's log lines written on this test's thread.
        pub(super) static LOG: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    }

    /// Takes the supervisor log lines this thread has written so far.
    fn take_log() -> Vec<String> {
        LOG.with(|log| std::mem::take(&mut *log.borrow_mut()))
    }

    /// The cycle at which each deadline trip in `log` stopped job `id`.
    fn deadline_stops(log: &[String], id: &str) -> Vec<u64> {
        log.iter()
            .filter(|line| line.starts_with(&format!("{id}: ")) && line.contains("deadline"))
            .map(|line| {
                let (_, cycle) = line.rsplit_once("stopped at cycle ").expect(line);
                cycle.trim_end_matches(')').parse().expect(line)
            })
            .collect()
    }

    /// The records `records` holds about `id`, its submissions aside.
    fn settling<'a>(records: &'a [JournalRecord], id: &str) -> Vec<&'a JournalRecord> {
        records
            .iter()
            .filter(|r| r.job() == id && !matches!(r, JournalRecord::Submitted { .. }))
            .collect()
    }

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

    /// The `QUAR` frame for `id`: its detail.
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
        // under a 20,000-cycle budget the first trips and the second
        // finishes.
        let _flag = signal::term_flag_shared();
        let dir = tmp_dir("deadline");
        let cfg = ServiceConfig::new(dir.clone());
        let specs: Vec<WireJobSpec> = [(1, 1), (1, 4)]
            .into_iter()
            .map(|shape| WireJobSpec {
                deadline_cycles: Some(20_000),
                ..hip(shape)
            })
            .collect();
        let poison = specs[0].id();
        take_log();
        let (_, replies) = sweep(&cfg, &specs);
        assert_eq!(
            quarantined(&replies, &poison),
            "quarantined after a failed run"
        );
        let stops = deadline_stops(&take_log(), &poison);
        assert!(
            stops.len() == 1 && stops[0] >= 20_000,
            "one trip, past the budget: {stops:?}"
        );
        // The healthy job still completed; the sweep exits nonzero.
        done(&replies, &specs[1].id());
        let (text, failed) = table(&specs, &replies);
        assert_eq!(failed, 1);
        assert!(
            text.contains("QUAR quarantined after a failed run"),
            "{text}"
        );
        assert!(text.contains("cycles"), "{text}");
        assert!(text.contains("== 1 ok, 1 failed =="), "{text}");

        // One record settles the job; a re-run skips it at once (still
        // quarantined, no new run) and prints the same table.
        let (_, records) = Journal::open(&dir.join("journal.log")).unwrap();
        assert_eq!(
            settling(&records, &poison),
            [&JournalRecord::Quarantined {
                job: poison.clone(),
                failures: 1
            }]
        );
        let before = records.len();
        let (_, replies2) = sweep(&cfg, &specs);
        quarantined(&replies2, &poison);
        assert_eq!(table(&specs, &replies2).0, text);
        assert!(deadline_stops(&take_log(), &poison).is_empty());
        let (_, records2) = Journal::open(&dir.join("journal.log")).unwrap();
        // The resubmission itself is journaled; it is not a retry.
        assert!(
            settling(&records2[before..], &poison).is_empty(),
            "quarantined job was run again"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_failure_kind_is_quarantined_on_its_first_occurrence() {
        // Beside a healthy job: a cycle-deadline trip (HIP Tiny GLSC needs
        // 32,402 cycles at 1x1), a validator that always rejects, and one
        // that panics. Each failing job simulates once (one log line, one
        // validator call, one pause past the deadline) and is settled by
        // one `Quarantined` record, and a second pass over the same state
        // dir answers it from the journal with the same row.
        let _flag = signal::term_flag_shared();
        let dir = tmp_dir("first-failure");
        let cfg = ServiceConfig::new(dir.clone());
        let specs = [
            WireJobSpec {
                deadline_cycles: Some(20_000),
                ..hip((1, 1))
            },
            hip((1, 2)),
            hip((1, 4)),
            hip((4, 4)),
        ];
        let ids: Vec<String> = specs.iter().map(WireJobSpec::id).collect();
        let rejects = Arc::new(AtomicU32::new(0));
        let panics = Arc::new(AtomicU32::new(0));
        let jobs = || {
            let mut jobs: Vec<JobSpec> = specs.iter().map(|s| spec_to_job(s).unwrap()).collect();
            let calls = Arc::clone(&rejects);
            jobs[1].workload.validate = Box::new(move |_| {
                calls.fetch_add(1, Ordering::SeqCst);
                Err("rejects every run".into())
            });
            let calls = Arc::clone(&panics);
            jobs[2].workload.validate = Box::new(move |_| {
                calls.fetch_add(1, Ordering::SeqCst);
                panic!("validator panicked")
            });
            jobs
        };
        // One supervised pass: each job's row as the sweep table renders
        // it, and the records the pass appended.
        let pass = || {
            std::fs::create_dir_all(&cfg.state_dir).unwrap();
            let store = JobStore::at(cfg.state_dir.join("cache"), true);
            let path = cfg.state_dir.join("journal.log");
            let (mut journal, records) = Journal::open(&path).unwrap();
            let mut rows = vec![String::new(); specs.len()];
            let unsettled = run_supervised(
                &cfg,
                &store,
                &mut journal,
                &mut replay(&records),
                &jobs(),
                |gi, o| {
                    rows[gi] = match o {
                        Ok(result) => format!("{} cycles", result.report.cycles),
                        Err(e) => format!("{} {}", e.cell(), e.message()),
                    };
                },
            )
            .unwrap();
            assert_eq!(unsettled, 0);
            drop(journal);
            let (_, after) = Journal::open(&path).unwrap();
            (rows, after[records.len()..].to_vec())
        };

        take_log();
        let (rows, appended) = pass();
        let log = take_log();
        assert_eq!(rows[..3], ["QUAR quarantined after a failed run"; 3]);
        assert!(rows[3].ends_with(" cycles"), "{rows:?}");
        assert_eq!(rejects.load(Ordering::SeqCst), 1);
        assert_eq!(panics.load(Ordering::SeqCst), 1);
        for (id, why) in
            ids.iter()
                .zip(["cycle deadline", "rejects every run", "validator panicked"])
        {
            let lines: Vec<&String> = log
                .iter()
                .filter(|l| l.starts_with(&format!("{id}: ")))
                .collect();
            assert!(
                lines.len() == 1 && lines[0].contains(why),
                "{id}: {lines:?}"
            );
            assert_eq!(
                settling(&appended, id),
                [&JournalRecord::Quarantined {
                    job: id.clone(),
                    failures: 1
                }]
            );
        }
        assert!(matches!(
            settling(&appended, &ids[3])[..],
            [JournalRecord::Done { .. }]
        ));

        // The second pass runs nothing and appends nothing.
        let (rows2, appended2) = pass();
        assert_eq!(rows2, rows);
        assert!(appended2.is_empty(), "{appended2:?}");
        assert!(take_log().is_empty());
        assert_eq!(rejects.load(Ordering::SeqCst), 1);
        assert_eq!(panics.load(Ordering::SeqCst), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wall_deadline_is_a_per_job_budget() {
        // Regression: the wall clock used to start at a job's first pause
        // and never restart, so once one attempt had used up the budget
        // every retry tripped at its own first pause and the job was
        // quarantined without its retries getting any run time. A job now
        // gets one run, and its clock starts at that run's first pause,
        // so the trip must land after the job has run past it.
        // SMC Base at dataset B on 32x8 takes about 300 ms of host time
        // in a release build, ten times the budget. Simulated cycles are
        // no guide: idle windows are skipped, so TMS Base at dataset A,
        // 1x1 (2,069,233 cycles) can finish inside 30 ms.
        let _flag = signal::term_flag_shared();
        let dir = tmp_dir("wall");
        let cfg = ServiceConfig::new(dir.clone());
        let spec = WireJobSpec {
            deadline_wall_ms: Some(30),
            ..WireJobSpec::kernel("SMC", Dataset::B, Variant::Base, (32, 8), 4)
        };
        take_log();
        let (_, replies) = sweep(&cfg, std::slice::from_ref(&spec));
        assert_eq!(
            quarantined(&replies, &spec.id()),
            "quarantined after a failed run"
        );
        let log = take_log();
        let stops = deadline_stops(&log, &spec.id());
        assert_eq!(stops.len(), 1, "{log:?}");
        assert!(log[0].contains("30 ms wall-clock deadline"), "{log:?}");
        assert!(
            stops[0] > SLICE_CYCLES,
            "the job tripped at its first pause (cycle {})",
            stops[0]
        );
        let (_, records) = Journal::open(&dir.join("journal.log")).unwrap();
        assert_eq!(
            settling(&records, &spec.id()),
            [&JournalRecord::Quarantined {
                job: spec.id(),
                failures: 1
            }]
        );
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
        let mut ledgers = replay(&records);
        let mut streamed = Vec::new();
        let unsettled = run_supervised(&cfg, &store, &mut journal, &mut ledgers, &jobs, |gi, o| {
            streamed.push((gi, o.is_ok()));
        })
        .unwrap();
        assert_eq!(unsettled, 0);
        assert_eq!(streamed, vec![(0, true)]);
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
        let mut ledgers = replay(&records);
        let (mut order, mut cycles) = (Vec::new(), Vec::new());
        let unsettled = run_supervised(&cfg, &store, &mut journal, &mut ledgers, &jobs, |gi, o| {
            let result = o
                .as_ref()
                .unwrap_or_else(|e| panic!("job {gi} failed: {e:?}"));
            order.push(gi);
            cycles.push(result.report.cycles);
        })
        .unwrap();
        assert_eq!(unsettled, 0);
        assert!(
            cycles[0] > 4 * (cycles[1] + cycles[2]),
            "the first job must be the long one: {cycles:?}"
        );
        assert_eq!(order, [0, 1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
