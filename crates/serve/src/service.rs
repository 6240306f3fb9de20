//! The run half of a session: one loop from each queued spec to its
//! reply frame.
//!
//! Every job reaches it through the one front door, a protocol session
//! ([`crate::session`]), which admits and journals each `WireJobSpec`
//! and hands its drained queue to `run_queue`. The loop makes two
//! passes in submission order. The first answers what the journal
//! already settled: a quarantined job streams its `QUAR` row, and a done
//! job streams its stored report with the journaled chaos line. The
//! second runs the remaining specs on the figure harness's job executor
//! ([`glsc_bench::run_ordered`]), one worker per host core
//! ([`glsc_bench::bench_threads`]). A worker lowers its spec through
//! [`WireJobSpec::lower`], keys it by the harness rule, and runs it on a
//! fresh [`Machine`], mounted as the figure harness mounts a job (image,
//! program, and a fault plan for a chaos job), in `SLICE_CYCLES`
//! (1,024-cycle) slices with a supervision pause between slices; the
//! workload is dropped when the run ends, so the service holds one job
//! per worker. The calling thread settles the outcomes in submission
//! order: every outcome is write-ahead journaled (`done | quarantined`;
//! the session journals `submitted`) through `journal::journal_apply`,
//! which folds the record into the session's ledgers by the rule replay
//! uses; a finished report goes to the result store before its `done`
//! record is appended, and the reply frame leaves after both. Reply
//! frames, journal bytes and sweep tables are therefore the same at any
//! worker count.
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
//! (`QUARANTINED`) while the rest of the sweep completes, with a
//! nonzero exit. A panic is contained to its job (machine dropped, the
//! worker goes on to its next job). Jobs are deterministic, so a second
//! attempt would fail the same way; only a wall-clock trip depends on
//! the host, and it is quarantined on its first occurrence too. A
//! quarantined job never runs again in that state dir: a restart or a
//! resubmission is answered from the journal, and only a fresh state dir
//! runs it again. A spec that no longer lowers (one an older, looser
//! build journaled) streams a `REJ` row and is closed out with a `Shed`
//! record.

use crate::journal::{journal_apply, JobLedger, Journal, JournalRecord};
use crate::proto::Reply;
use crate::queue::QueueEntry;
use crate::session::Client;
use crate::{kill, signal};
use glsc_bench::codec::encode_report;
use glsc_bench::jobspec::WireJobSpec;
use glsc_bench::store::{cfg_fingerprint, job_key};
use glsc_bench::JobStore;
use glsc_kernels::Workload;
use glsc_sim::{ChaosConfig, FaultPlan, Machine, MachineConfig, RunReport, SlicedRun};
use std::collections::HashMap;
use std::io::{self, Write};
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::time::Instant;

/// Simulated cycles the running job advances between supervision
/// pauses. Results do not depend on it; it only sets how promptly a
/// drain, a deadline, or an injected `cycles:` kill is noticed — short
/// enough to land inside the shortest tiny job, long enough that the
/// pause costs nothing measurable.
const SLICE_CYCLES: u64 = 1_024;

/// The label and detail of a quarantined job's `JobFailed` row. The
/// failure's reason goes to the log only, so a row answered from the
/// journal renders exactly as the live one did.
pub(crate) const QUARANTINED: (&str, &str) = ("QUAR", "quarantined after a failed run");

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

#[cfg(test)]
thread_local! {
    /// The service log lines written on this test's thread.
    static LOG: std::cell::RefCell<Vec<String>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Writes one service log line to stderr. Unit tests also keep the
/// lines their own thread logs, to count what an operator would see.
pub(crate) fn log(line: String) {
    #[cfg(test)]
    LOG.with(|log| log.borrow_mut().push(line.clone()));
    eprintln!("[serve] {line}");
}

/// Takes the service log lines this thread has written so far.
#[cfg(test)]
pub(crate) fn take_log() -> Vec<String> {
    LOG.with(|log| std::mem::take(&mut *log.borrow_mut()))
}

/// A finished job's reply frame.
fn done_reply(id: String, report: &RunReport, chaos: Option<String>) -> Reply {
    Reply::JobDone {
        id,
        cycles: report.cycles,
        report: encode_report(report),
        chaos,
    }
}

/// A quarantined job's reply frame.
fn quarantined_reply(id: String) -> Reply {
    let (label, detail) = QUARANTINED;
    Reply::JobFailed {
        id,
        label: label.to_string(),
        detail: detail.to_string(),
    }
}

/// Runs a session's drained queue, each job from the start of its spec,
/// on `workers` host threads through the harness's job executor
/// ([`glsc_bench::run_ordered`]), streaming each outcome's reply frame in
/// submission order the moment it and every earlier outcome are durable
/// (journaled and stored). Each job ends done, quarantined, rejected,
/// or — on a drain — unsettled, and every settling record goes through
/// [`journal_apply`] on the calling thread, so `ledgers` always says what
/// a restart would replay and the journal's bytes do not depend on
/// `workers`.
///
/// Returns the run's `(ok, failed)` counts for the session's sweep
/// summary, or `None` when a drain interrupted the run: the unsettled
/// jobs stay pending in the journal.
pub(crate) fn run_queue(
    svc: &ServiceConfig,
    store: &JobStore,
    journal: &mut Journal,
    ledgers: &mut HashMap<String, JobLedger>,
    entries: Vec<QueueEntry>,
    client: &mut Client<'_, impl Write>,
    workers: usize,
) -> io::Result<Option<(u32, u32)>> {
    let (mut ok, mut failed) = (0u32, 0u32);
    // Pass 1: answer what the journal already settled.
    let mut pending = Vec::new();
    for entry in entries {
        let ledger = ledgers.get(&entry.id);
        if ledger.is_some_and(|l| l.quarantined) {
            failed += 1;
            client.send(&quarantined_reply(entry.id));
            continue;
        }
        if let Some(chaos) = ledger.and_then(|l| l.done.clone()) {
            // Lowered only for its key.
            let stored = entry.spec.lower().ok().and_then(|(cfg, workload)| {
                store.load(&job_key(
                    &[&entry.id],
                    workload.fingerprint(),
                    cfg_fingerprint(&cfg),
                ))
            });
            if let Some(report) = stored {
                ok += 1;
                client.send(&done_reply(entry.id, &report, chaos));
                continue;
            }
            // Done in the journal but the cached report is gone or
            // corrupt: re-run — correctness never depends on the cache
            // surviving.
            log(format!(
                "{}: done in journal but report missing; re-running",
                entry.id
            ));
        }
        pending.push(entry);
    }

    // Pass 2: run the rest, unless a drain is pending. Workers lower and
    // run; this thread settles each outcome in submission order.
    let unsettled = pending.len();
    if unsettled > 0 && signal::term_requested() {
        log(format!(
            "drained: {unsettled} queued job(s) left pending in the journal"
        ));
        return Ok(None);
    }
    let (mut drained, mut error) = (false, None);
    glsc_bench::run_ordered(
        unsettled,
        workers,
        |i| {
            let spec = &pending[i].spec;
            spec.lower().map(|(cfg, workload)| {
                let key = job_key(
                    &[&pending[i].id],
                    workload.fingerprint(),
                    cfg_fingerprint(&cfg),
                );
                (key, run_job(svc, spec, cfg, workload))
            })
        },
        |i, outcome| {
            let id = pending[i].id.clone();
            let (record, reply) = match outcome {
                Err(detail) => {
                    // Admission refuses such a spec, but the journal may
                    // hold one a looser build admitted: a typed failure,
                    // closed out so it does not replay as pending forever.
                    log(format!("{id}: spec no longer lowers ({detail}); failing"));
                    failed += 1;
                    let reply = Reply::JobFailed {
                        id: id.clone(),
                        label: "REJ".to_string(),
                        detail,
                    };
                    (JournalRecord::Shed { job: id }, reply)
                }
                Ok((_, None)) => {
                    // A drain dropped the run in flight: the journal still
                    // holds it and every later job as not done, so the
                    // next start reruns them from their specs.
                    log(format!(
                        "drained: {} queued job(s) left pending in the journal",
                        unsettled - i
                    ));
                    drained = true;
                    return ControlFlow::Break(());
                }
                Ok((key, Some(Ok((report, chaos))))) => {
                    store.save(&key, &report);
                    ok += 1;
                    let reply = done_reply(id.clone(), &report, chaos.clone());
                    (JournalRecord::Done { job: id, chaos }, reply)
                }
                Ok((_, Some(Err(reason)))) => {
                    // The reason goes to the log only; the row renders
                    // from the record, so a replayed row matches the live
                    // one.
                    log(format!("{id}: quarantined: {reason}"));
                    failed += 1;
                    let reply = quarantined_reply(id.clone());
                    let record = JournalRecord::Quarantined {
                        job: id,
                        failures: 1,
                    };
                    (record, reply)
                }
            };
            if let Err(e) = journal_apply(journal, ledgers, record) {
                error = Some(e);
                return ControlFlow::Break(());
            }
            client.send(&reply);
            ControlFlow::Continue(())
        },
    );
    match error {
        Some(e) => Err(e),
        None => Ok((!drained).then_some((ok, failed))),
    }
}

/// Runs one lowered job on a fresh machine, mounted as the figure
/// harness mounts it, in `SLICE_CYCLES` slices. Between slices it
/// checks, in order: an injected `cycles:` kill, the drain flag, the
/// cycle deadline, and the wall deadline, whose clock starts at the
/// first pause. One `catch_unwind` covers the slices and the validator,
/// so a panic in either fails the job, not the service.
///
/// Returns `None` when a drain dropped the run, and otherwise the report
/// with its rendered chaos counters (for a chaos job), or the reason the
/// run failed.
fn run_job(
    svc: &ServiceConfig,
    spec: &WireJobSpec,
    cfg: MachineConfig,
    workload: Workload,
) -> Option<Result<(RunReport, Option<String>), String>> {
    let Workload {
        program,
        image,
        validate,
        ..
    } = workload;
    let mut machine = Machine::new(cfg);
    image.apply(machine.mem_mut().backing_mut());
    // The machine's memory holds the image now; free the copy.
    drop(image);
    machine.load_program(program);
    if let Some(seed) = spec.chaos {
        let plan = FaultPlan::new(ChaosConfig::from_seed(seed));
        machine.mem_mut().install_fault_plan(plan);
    }
    let cycle_limit = spec.deadline_cycles.or(svc.deadline_cycles);
    let wall_limit = spec.deadline_wall_ms.or(svc.deadline_wall_ms);
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
        Some(match validate(machine.mem().backing()) {
            Ok(()) => {
                let chaos = machine
                    .mem()
                    .chaos_stats()
                    .map(|stats| format!("{stats:?}"));
                Ok((report, chaos))
            }
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
    use crate::proto::{print_table, read_message, write_message, Request};
    use crate::session::{run_session, SessionEnd};
    use glsc_bench::codec::decode_report;
    use glsc_kernels::{Dataset, Variant};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

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

    /// The report `spec` gives when run outside the service.
    fn solo(spec: &WireJobSpec) -> RunReport {
        let (cfg, workload) = spec.lower().unwrap();
        glsc_kernels::run_workload(&workload, &cfg).unwrap().report
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

    /// Every reply frame in `output`.
    fn frames(mut output: &[u8]) -> Vec<Reply> {
        let mut replies = Vec::new();
        while let Some(reply) = read_message::<Reply>(&mut output).unwrap() {
            replies.push(reply);
        }
        replies
    }

    /// One session over `input`: how it ended, and every reply frame.
    fn session(cfg: &ServiceConfig, input: &mut impl std::io::Read) -> (SessionEnd, Vec<Reply>) {
        let mut output = Vec::new();
        let end = run_session(cfg, input, &mut output).unwrap();
        (end, frames(&output))
    }

    /// A sweep through the front door, as the `sweep` command runs it.
    fn sweep(cfg: &ServiceConfig, specs: &[WireJobSpec]) -> (SessionEnd, Vec<Reply>) {
        session(cfg, &mut &requests(specs)[..])
    }

    /// The queue entry a session would admit for `spec`.
    fn entry(spec: WireJobSpec) -> QueueEntry {
        QueueEntry {
            id: spec.id(),
            priority: 0,
            spec,
        }
    }

    /// Runs `entries` as a session's `Run` would, over `cfg`'s state
    /// dir: whether a drain interrupted it, and every reply frame.
    fn run(cfg: &ServiceConfig, entries: Vec<QueueEntry>) -> (bool, Vec<Reply>) {
        run_on(cfg, entries, 1)
    }

    /// [`run`] on `workers` host threads.
    fn run_on(cfg: &ServiceConfig, entries: Vec<QueueEntry>, workers: usize) -> (bool, Vec<Reply>) {
        std::fs::create_dir_all(&cfg.state_dir).unwrap();
        let store = JobStore::at(cfg.state_dir.join("cache"), true);
        let (mut journal, records) = Journal::open(&cfg.state_dir.join("journal.log")).unwrap();
        let mut ledgers = replay(&records);
        let mut output = Vec::new();
        let mut client = Client::new(&mut output);
        let summary = run_queue(
            cfg,
            &store,
            &mut journal,
            &mut ledgers,
            entries,
            &mut client,
            workers,
        )
        .unwrap();
        if let Some((ok, failed)) = summary {
            client.send(&Reply::SweepDone {
                ok,
                failed,
                shed: 0,
            });
        }
        (summary.is_none(), frames(&output))
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

    /// The ids of the result frames in `replies`, in stream order.
    fn stream_order(replies: &[Reply]) -> Vec<&str> {
        replies
            .iter()
            .filter_map(|r| match r {
                Reply::JobDone { id, .. } | Reply::JobFailed { id, .. } => Some(id.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn quarantine_row_is_pinned() {
        // Operators grep this exact row out of sweep tables; changing it
        // is a breaking change to the output format.
        assert_eq!(QUARANTINED, ("QUAR", "quarantined after a failed run"));
    }

    #[test]
    fn sweep_matches_unsupervised_run() {
        let _flag = signal::term_flag_shared();
        let dir = tmp_dir("clean");
        let cfg = ServiceConfig::new(dir.clone());
        let specs = [hip((1, 2))];
        let (end, replies) = sweep(&cfg, &specs);
        assert_eq!(end, SessionEnd::Closed);
        let (report, chaos) = done(&replies, &specs[0].id());
        assert_eq!(report, solo(&specs[0]));
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
        // A validator that always rejects and one that panics each fail
        // the run once (one validator call) with the reason the log
        // shows. Through the loop, beside a healthy job, a cycle-deadline
        // trip (HIP Tiny GLSC needs 32,402 cycles at 1x1) simulates once
        // (one log line), is settled by one `Quarantined` record, and a
        // second pass over the same state dir answers it from the journal
        // with the same row; every failure reaches that record through
        // the same branch.
        let _flag = signal::term_flag_shared();
        let svc = ServiceConfig::new(PathBuf::new());
        let spec = hip((1, 2));
        let calls = Arc::new(AtomicU32::new(0));
        for (why, panics) in [("rejects every run", false), ("validator panicked", true)] {
            let (cfg, mut workload) = spec.lower().unwrap();
            let counted = Arc::clone(&calls);
            workload.validate = Box::new(move |_| {
                counted.fetch_add(1, Ordering::SeqCst);
                if panics {
                    panic!("validator panicked");
                }
                Err("rejects every run".into())
            });
            let before = calls.load(Ordering::SeqCst);
            match run_job(&svc, &spec, cfg, workload) {
                Some(Err(reason)) => assert!(reason.contains(why), "{reason}"),
                other => panic!("{why}: {other:?}"),
            }
            assert_eq!(calls.load(Ordering::SeqCst), before + 1, "{why}");
        }

        let dir = tmp_dir("first-failure");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ServiceConfig::new(dir.clone());
        let specs = [
            WireJobSpec {
                deadline_cycles: Some(20_000),
                ..hip((1, 1))
            },
            hip((4, 4)),
        ];
        let ids: Vec<String> = specs.iter().map(WireJobSpec::id).collect();
        // One pass: each job's row as the sweep table renders it, and the
        // records the pass appended.
        let pass = || {
            let path = dir.join("journal.log");
            let before = Journal::open(&path).unwrap().1.len();
            let (_, replies) = run(&cfg, specs.iter().cloned().map(entry).collect());
            let (_, after) = Journal::open(&path).unwrap();
            (table(&specs, &replies).0, after[before..].to_vec())
        };
        take_log();
        let (rows, appended) = pass();
        let log = take_log();
        assert!(
            rows.contains(&format!("{}  QUAR quarantined after a failed run", ids[0])),
            "{rows}"
        );
        let lines: Vec<&String> = log
            .iter()
            .filter(|l| l.starts_with(&format!("{}: ", ids[0])))
            .collect();
        assert!(
            lines.len() == 1 && lines[0].contains("cycle deadline"),
            "{lines:?}"
        );
        assert_eq!(
            settling(&appended, &ids[0]),
            [&JournalRecord::Quarantined {
                job: ids[0].clone(),
                failures: 1
            }]
        );
        assert!(matches!(
            settling(&appended, &ids[1])[..],
            [JournalRecord::Done { .. }]
        ));

        // The second pass runs nothing and appends nothing.
        let (rows2, appended2) = pass();
        assert_eq!(rows2, rows);
        assert!(appended2.is_empty(), "{appended2:?}");
        assert!(take_log().is_empty());
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
        assert_eq!(
            done(&replies, &id).0,
            solo(&specs[0]),
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
        // Each reply frame leaves after its job's record is journaled and
        // its report stored: a client that has seen `JobDone` can
        // reconnect to a restarted service and be served from the store.
        let _flag = signal::term_flag_shared();
        let dir = tmp_dir("stream");
        let cfg = ServiceConfig::new(dir.clone());
        let spec = hip((1, 2));
        let (drained, replies) = run(&cfg, vec![entry(spec.clone())]);
        assert!(!drained);
        assert_eq!(stream_order(&replies), [spec.id()]);
        assert!(matches!(
            replies.last(),
            Some(Reply::SweepDone {
                ok: 1,
                failed: 0,
                shed: 0
            })
        ));
        let (_, records) = Journal::open(&dir.join("journal.log")).unwrap();
        assert!(replay(&records)[&spec.id()].done.is_some());
        let (_, again) = run(&cfg, vec![entry(spec.clone())]);
        assert_eq!(again, replies, "served from the store, frame for frame");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_stream_in_submission_order() {
        // A long 1x1 job ahead of two short 4x4 jobs: results stream in
        // submission order although the later jobs need a tenth of the
        // cycles and, with more than one worker, finish first.
        let _flag = signal::term_flag_shared();
        let dir = tmp_dir("order");
        let cfg = ServiceConfig::new(dir.clone());
        let specs = [
            hip((1, 1)),
            WireJobSpec::kernel("HIP", Dataset::Tiny, Variant::Base, (4, 4), 4),
            hip((4, 4)),
        ];
        let (_, replies) = sweep(&cfg, &specs);
        let ids: Vec<String> = specs.iter().map(WireJobSpec::id).collect();
        assert_eq!(stream_order(&replies), ids);
        let cycles: Vec<u64> = ids.iter().map(|id| done(&replies, id).0.cycles).collect();
        assert!(
            cycles[0] > 4 * (cycles[1] + cycles[2]),
            "the first job must be the long one: {cycles:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_and_two_workers_give_identical_frames_and_journals() {
        // Done, chaos, quarantined (a cycle-deadline trip) and rejected
        // jobs, long ones ahead of short ones: the calling thread settles
        // every outcome in submission order, so the reply frames and the
        // journal's bytes do not depend on the worker count.
        let _flag = signal::term_flag_shared();
        let specs = [
            hip((1, 1)),
            WireJobSpec {
                deadline_cycles: Some(20_000),
                ..WireJobSpec::kernel("GBC", Dataset::Tiny, Variant::Glsc, (1, 1), 4)
            },
            WireJobSpec {
                kernel: "EVIL".into(),
                ..hip((1, 2))
            },
            hip((4, 4)),
            WireJobSpec {
                chaos: Some(5),
                ..WireJobSpec::kernel("GBC", Dataset::Tiny, Variant::Glsc, (2, 2), 4)
            },
            WireJobSpec::kernel("HIP", Dataset::Tiny, Variant::Base, (4, 4), 4),
        ];
        let outputs: Vec<(Vec<Reply>, Vec<u8>)> = [1, 2]
            .into_iter()
            .map(|workers| {
                let dir = tmp_dir(&format!("workers-{workers}"));
                let cfg = ServiceConfig::new(dir.clone());
                let (drained, replies) =
                    run_on(&cfg, specs.iter().cloned().map(entry).collect(), workers);
                assert!(!drained);
                let journal = std::fs::read(dir.join("journal.log")).unwrap();
                let _ = std::fs::remove_dir_all(&dir);
                (replies, journal)
            })
            .collect();
        let ids: Vec<String> = specs.iter().map(WireJobSpec::id).collect();
        assert_eq!(stream_order(&outputs[0].0), ids);
        assert!(matches!(
            outputs[0].0.last(),
            Some(Reply::SweepDone {
                ok: 4,
                failed: 2,
                shed: 0
            })
        ));
        assert_eq!(outputs[1].0, outputs[0].0, "reply frames");
        assert_eq!(outputs[1].1, outputs[0].1, "journal bytes");
    }

    #[test]
    fn settled_jobs_answer_before_the_rest_run() {
        // Pass 1 streams what the journal settled ahead of every run: a
        // job done in an earlier session answers before one submitted
        // ahead of it runs. A drain raised before pass 2 still answers
        // the settled job and leaves the pending one journaled pending.
        let dir = tmp_dir("settled");
        let cfg = ServiceConfig::new(dir.clone());
        let (settled, fresh, late) = (hip((1, 2)), hip((1, 4)), hip((2, 2)));
        {
            let _flag = signal::term_flag_shared();
            sweep(&cfg, std::slice::from_ref(&settled));
            let (_, replies) = run(&cfg, vec![entry(fresh.clone()), entry(settled.clone())]);
            assert_eq!(stream_order(&replies), [settled.id(), fresh.id()]);
        }

        let _flag = signal::term_flag_exclusive();
        let input = requests(&[late.clone(), settled.clone()]);
        let (end, replies) = session(&cfg, &mut TermAtEnd(&input));
        signal::clear_term_for_tests();
        assert_eq!(end, SessionEnd::Drained);
        assert_eq!(stream_order(&replies), [settled.id()]);
        assert!(
            !replies.iter().any(|r| matches!(r, Reply::SweepDone { .. })),
            "{replies:?}"
        );
        let (_, records) = Journal::open(&dir.join("journal.log")).unwrap();
        let ledgers = replay(&records);
        assert!(ledgers[&late.id()].pending.is_some());
        assert!(ledgers[&late.id()].done.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_entry_that_no_longer_lowers_streams_a_typed_failure_in_turn() {
        // A hostile entry forced past admission, as a drifted validator
        // would have, behind a good job: the good job runs first, and the
        // hostile one fails typed when its turn comes, closed out with a
        // `Shed` record.
        let _flag = signal::term_flag_shared();
        let dir = tmp_dir("lower");
        let cfg = ServiceConfig::new(dir.clone());
        let good = hip((1, 2));
        let bad = WireJobSpec {
            kernel: "EVIL".into(),
            ..hip((1, 2))
        };
        let (drained, replies) = run(&cfg, vec![entry(good.clone()), entry(bad.clone())]);
        assert!(!drained);
        assert_eq!(stream_order(&replies), [good.id(), bad.id()]);
        assert!(
            matches!(outcome(&replies, &bad.id()), Some(Reply::JobFailed { label, detail, .. })
                if label == "REJ" && detail.contains("EVIL")),
            "{replies:?}"
        );
        assert!(
            matches!(
                replies.last(),
                Some(Reply::SweepDone {
                    ok: 1,
                    failed: 1,
                    ..
                })
            ),
            "{replies:?}"
        );
        let (_, records) = Journal::open(&dir.join("journal.log")).unwrap();
        assert_eq!(
            settling(&records, &bad.id()),
            [&JournalRecord::Shed { job: bad.id() }]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
