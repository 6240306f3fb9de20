//! One protocol session: framed requests in, framed replies and
//! streaming results out (DESIGN.md §15).
//!
//! This is the service's one front door: every job `glsc-serve` runs
//! enters here as a [`WireJobSpec`], whether a client sent it over
//! stdin or a socket or the `sweep` command wrote it into an in-memory
//! request buffer. The run loop ([`crate::service`]) lowers each one
//! through [`WireJobSpec::lower`], the lowering the figure harness's
//! kernel jobs share, when its turn comes.
//!
//! A session opens by replaying the journal and re-queueing every
//! pending submission; a pending spec that no longer decodes or
//! validates is closed out with a `Shed` record instead. It then
//! alternates between an **admission phase** — reading [`Request`]
//! frames, applying the [`AdmissionQueue`] policy, and journaling every
//! decision (`Submitted` / `Shed`) before the reply frame leaves — and a
//! **run phase**, entered on [`Request::Run`] (or end of stream with
//! work queued), which hands the drained queue to the run loop and
//! streams a result frame per job, in submission order, as it becomes
//! durable, then the sweep summary.
//! The session and the run loop append every record through
//! `journal::journal_apply`, so the session's ledgers always say what a
//! restart would replay.
//!
//! The hostile-client contract, pinned by the torture oracle in
//! `tests/`:
//!
//! * a malformed or checksum-corrupt frame gets a typed
//!   [`Reply::FrameError`] and the session keeps reading — the declared
//!   length still delimited the bad frame, so framing stays in sync;
//! * an oversized or truncated frame ends the *reading* half only:
//!   every job already accepted still runs and is journaled/cached;
//! * a client that disconnects mid-stream loses its socket, not its
//!   jobs — the run finishes durably, and a reconnecting client
//!   resubmitting the same specs is served from the result store
//!   without a single cycle re-simulated;
//! * a `SIGTERM` drains: runs in flight are dropped, and every job
//!   without a `Done` record stays journaled as `Submitted`-pending, so
//!   the next service start re-queues and runs it from its spec even if
//!   the client never returns.

use crate::journal::{journal_apply, replay, JobLedger, Journal, JournalRecord};
use crate::proto::{read_message, write_message, FrameError, Reply, Request};
use crate::queue::{Admission, AdmissionQueue, QueueEntry};
use crate::service::{log, run_queue, ServiceConfig};
use crate::signal;
use glsc_bench::jobspec::WireJobSpec;
use glsc_bench::JobStore;
use std::collections::HashMap;
use std::io::{self, Read, Write};

/// How a session ended.
#[derive(Debug, PartialEq, Eq)]
pub enum SessionEnd {
    /// The client's stream ended (EOF, disconnect, or an unrecoverable
    /// frame error); all accepted work ran to durability first.
    Closed,
    /// The client asked the service to shut down. Queued-but-unstarted
    /// jobs stay journaled as pending and run on the next start.
    Shutdown,
    /// A SIGTERM drained the service mid-session.
    Drained,
}

/// Runs one session over any byte stream (stdin/stdout or a Unix socket
/// connection). Returns how the session ended; IO errors from the
/// *durable* side (journal, result store) are real errors, while client
/// write failures only mark the client gone — accepted jobs always run
/// to durability.
pub fn run_session(
    cfg: &ServiceConfig,
    input: &mut impl Read,
    output: &mut impl Write,
) -> io::Result<SessionEnd> {
    std::fs::create_dir_all(&cfg.state_dir)?;
    let store = JobStore::at(cfg.state_dir.join("cache"), true);
    let (mut journal, records) = Journal::open(&cfg.state_dir.join("journal.log"))?;
    let mut ledgers = replay(&records);

    let mut queue = AdmissionQueue::new(cfg.queue_capacity);
    restore_pending(&records, &mut journal, &mut ledgers, &mut queue)?;

    let mut client = Client::new(output);
    let mut shed: u32 = 0;

    loop {
        if signal::term_requested() {
            return Ok(SessionEnd::Drained);
        }
        let request = match read_message::<Request>(input) {
            Ok(Some(req)) => req,
            // Clean EOF: run whatever was queued, then close.
            Ok(None) => break,
            Err(e) if e.is_resyncable() => {
                // One bad frame; framing is still in sync. Typed reply,
                // keep reading.
                client.send(&Reply::FrameError {
                    detail: e.to_string(),
                });
                continue;
            }
            Err(e) => {
                // Frame boundaries are gone (oversized/truncated) or the
                // transport died. Stop reading, but accepted jobs still
                // run durably.
                if matches!(e, FrameError::Io(_)) {
                    client.gone = true;
                } else {
                    client.send(&Reply::FrameError {
                        detail: e.to_string(),
                    });
                }
                break;
            }
        };
        match request {
            Request::Submit { priority, spec } => {
                if let Err(e) = spec.validate() {
                    client.send(&Reply::Rejected {
                        id: spec.id(),
                        reason: e.to_string(),
                    });
                    continue;
                }
                let id = spec.id();
                match queue.offer(QueueEntry {
                    id: id.clone(),
                    priority,
                    spec: spec.clone(),
                }) {
                    Admission::Duplicate => client.send(&Reply::Accepted { id }),
                    Admission::Enqueued => {
                        journal_submit(&mut journal, &mut ledgers, &id, priority, &spec)?;
                        client.send(&Reply::Accepted { id });
                    }
                    Admission::Shed { queued, capacity } => {
                        journal_shed(&mut journal, &mut ledgers, &id)?;
                        shed += 1;
                        client.send(&Reply::Shed {
                            id,
                            queued: queued as u32,
                            capacity: capacity as u32,
                        });
                    }
                    Admission::Evicted { victim } => {
                        // The victim's late shed and the incoming job's
                        // admission are both journaled before either
                        // reply leaves.
                        journal_shed(&mut journal, &mut ledgers, &victim.id)?;
                        journal_submit(&mut journal, &mut ledgers, &id, priority, &spec)?;
                        shed += 1;
                        client.send(&Reply::Shed {
                            id: victim.id,
                            queued: queue.len() as u32,
                            capacity: queue.capacity() as u32,
                        });
                        client.send(&Reply::Accepted { id });
                    }
                }
            }
            Request::Run => {
                let entries = queue.drain();
                let summary = run_queue(
                    cfg,
                    &store,
                    &mut journal,
                    &mut ledgers,
                    entries,
                    &mut client,
                    glsc_bench::bench_threads(),
                )?;
                let Some((ok, failed)) = summary else {
                    return Ok(SessionEnd::Drained);
                };
                client.send(&Reply::SweepDone { ok, failed, shed });
            }
            Request::Shutdown => return Ok(SessionEnd::Shutdown),
        }
    }
    if queue.is_empty() {
        return Ok(SessionEnd::Closed);
    }
    let entries = queue.drain();
    let summary = run_queue(
        cfg,
        &store,
        &mut journal,
        &mut ledgers,
        entries,
        &mut client,
        glsc_bench::bench_threads(),
    )?;
    let Some((ok, failed)) = summary else {
        return Ok(SessionEnd::Drained);
    };
    client.send(&Reply::SweepDone { ok, failed, shed });
    Ok(SessionEnd::Closed)
}

/// Journals one admission. A resubmission of a job the journal already
/// settled is journaled too, but stays not pending.
fn journal_submit(
    journal: &mut Journal,
    ledgers: &mut HashMap<String, JobLedger>,
    id: &str,
    priority: u8,
    spec: &WireJobSpec,
) -> io::Result<()> {
    let rec = JournalRecord::Submitted {
        job: id.to_string(),
        priority,
        spec: spec.to_bytes(),
    };
    journal_apply(journal, ledgers, rec)
}

/// Journals one shed decision (admission refusal or eviction).
fn journal_shed(
    journal: &mut Journal,
    ledgers: &mut HashMap<String, JobLedger>,
    id: &str,
) -> io::Result<()> {
    let rec = JournalRecord::Shed {
        job: id.to_string(),
    };
    journal_apply(journal, ledgers, rec)
}

/// Re-queues every journal-replayed pending job, in original submission
/// order, ahead of anything this session submits. The journal's record
/// order is the source of truth — ledger maps lose it. A pending spec
/// that no longer decodes or validates is closed out with a `Shed`
/// record, so it is dropped once, not logged again at every boot.
fn restore_pending(
    records: &[JournalRecord],
    journal: &mut Journal,
    ledgers: &mut HashMap<String, JobLedger>,
    queue: &mut AdmissionQueue,
) -> io::Result<()> {
    let mut order: Vec<&str> = Vec::new();
    for rec in records {
        if let JournalRecord::Submitted { job, .. } = rec {
            order.retain(|id| id != job);
            order.push(job);
        }
    }
    // `restore` pushes to the front, so feed it newest-first to leave
    // the queue oldest-first.
    for id in order.iter().rev() {
        let Some((priority, spec_bytes)) = ledgers.get(*id).and_then(|l| l.pending.clone()) else {
            continue;
        };
        let problem = match WireJobSpec::from_bytes(&spec_bytes) {
            // Replayed specs were validated at admission, but the
            // validator may have tightened since (or the journal may
            // carry bytes an older build admitted) — re-check before
            // trusting them enough to build workloads.
            Ok(spec) => match spec.validate() {
                Ok(()) => {
                    log(format!("{id}: re-queued from journal (pending submission)"));
                    queue.restore(QueueEntry {
                        id: (*id).to_string(),
                        priority,
                        spec,
                    });
                    continue;
                }
                Err(e) => format!("journaled spec no longer valid ({e})"),
            },
            // A journaled spec that no longer decodes is a version skew
            // or corruption the checksum missed; drop it loudly rather
            // than crash the boot.
            Err(e) => format!("journaled spec undecodable ({e})"),
        };
        log(format!("{id}: {problem}; dropping"));
        journal_shed(journal, ledgers, id)?;
    }
    Ok(())
}

/// The reply side of a session. Liveness is best-effort: once a write
/// fails the session stops talking but keeps working, so accepted jobs
/// still run to durability.
pub(crate) struct Client<'a, W: Write> {
    output: &'a mut W,
    /// A write failed or the transport died; nothing more is sent.
    pub(crate) gone: bool,
}

impl<'a, W: Write> Client<'a, W> {
    /// A client that has not gone away.
    pub(crate) fn new(output: &'a mut W) -> Self {
        Self {
            output,
            gone: false,
        }
    }

    /// Writes one reply frame unless the client is gone.
    pub(crate) fn send(&mut self, reply: &Reply) {
        if !self.gone && write_message(self.output, reply).is_err() {
            self.gone = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsc_kernels::{Dataset, Variant};
    use glsc_wire::{to_bytes, Wire};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("glsc-serve-sess-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_cfg(dir: &std::path::Path) -> ServiceConfig {
        let mut cfg = ServiceConfig::new(dir.to_path_buf());
        cfg.queue_capacity = 2;
        cfg
    }

    fn submit(buf: &mut Vec<u8>, priority: u8, spec: WireJobSpec) {
        crate::proto::write_message(buf, &Request::Submit { priority, spec }).unwrap();
    }

    fn read_replies(mut bytes: &[u8]) -> Vec<Reply> {
        let mut replies = Vec::new();
        while let Some(reply) = read_message::<Reply>(&mut bytes).unwrap() {
            replies.push(reply);
        }
        replies
    }

    fn hip_spec() -> WireJobSpec {
        WireJobSpec::kernel("HIP", Dataset::Tiny, Variant::Glsc, (1, 2), 4)
    }

    #[test]
    fn submit_run_streams_result_and_summary() {
        let _flag = crate::signal::term_flag_shared();
        let dir = tmp_dir("basic");
        let cfg = small_cfg(&dir);
        let mut input = Vec::new();
        submit(&mut input, 0, hip_spec());
        crate::proto::write_message(&mut input, &Request::Run).unwrap();
        let mut output = Vec::new();
        let end = run_session(&cfg, &mut &input[..], &mut output).unwrap();
        assert_eq!(end, SessionEnd::Closed);
        let replies = read_replies(&output);
        assert!(
            matches!(&replies[0], Reply::Accepted { id } if id == "HIP-T-GLSC-1x2-w4"),
            "{replies:?}"
        );
        match &replies[1] {
            Reply::JobDone {
                id,
                cycles,
                report,
                chaos,
            } => {
                assert_eq!(id, "HIP-T-GLSC-1x2-w4");
                let decoded = glsc_bench::codec::decode_report(report).unwrap();
                assert_eq!(decoded.cycles, *cycles);
                assert_eq!(*chaos, None);
            }
            other => panic!("expected JobDone, got {other:?}"),
        }
        assert!(
            matches!(
                &replies[2],
                Reply::SweepDone {
                    ok: 1,
                    failed: 0,
                    shed: 0
                }
            ),
            "{replies:?}"
        );
        assert_eq!(replies.len(), 3, "EOF on an empty queue adds nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overflow_is_shed_and_bad_frames_get_typed_errors() {
        let _flag = crate::signal::term_flag_shared();
        let dir = tmp_dir("shed");
        let cfg = small_cfg(&dir); // capacity 2
        let mut input = Vec::new();
        submit(&mut input, 0, hip_spec());
        submit(
            &mut input,
            0,
            WireJobSpec::kernel("GBC", Dataset::Tiny, Variant::Glsc, (1, 2), 4),
        );
        submit(
            &mut input,
            0,
            WireJobSpec::kernel("FS", Dataset::Tiny, Variant::Glsc, (1, 2), 4),
        );
        // A checksum-corrupt frame in the middle: typed error, session
        // keeps going.
        let mut bad = Vec::new();
        crate::proto::write_message(&mut bad, &Request::Run).unwrap();
        *bad.last_mut().unwrap() ^= 0xFF;
        input.extend_from_slice(&bad);
        // An invalid spec: rejected, never queued.
        let mut hostile = hip_spec();
        hostile.cores = 9999;
        submit(&mut input, 0, hostile);
        let mut output = Vec::new();
        let end = run_session(&cfg, &mut &input[..], &mut output).unwrap();
        assert_eq!(end, SessionEnd::Closed);
        let replies = read_replies(&output);
        assert!(matches!(&replies[0], Reply::Accepted { .. }));
        assert!(matches!(&replies[1], Reply::Accepted { .. }));
        assert!(
            matches!(&replies[2], Reply::Shed { id, queued: 2, capacity: 2 } if id == "FS-T-GLSC-1x2-w4"),
            "{replies:?}"
        );
        assert!(
            matches!(&replies[3], Reply::FrameError { .. }),
            "{replies:?}"
        );
        assert!(
            matches!(&replies[4], Reply::Rejected { reason, .. } if reason.contains("cores")),
            "{replies:?}"
        );
        // EOF ran the two accepted jobs; the summary counts the shed.
        let done = replies
            .iter()
            .filter(|r| matches!(r, Reply::JobDone { .. }))
            .count();
        assert_eq!(done, 2);
        assert!(
            matches!(
                replies.last(),
                Some(Reply::SweepDone {
                    ok: 2,
                    failed: 0,
                    shed: 1
                })
            ),
            "{replies:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_stream_still_runs_accepted_jobs_durably() {
        let _flag = crate::signal::term_flag_shared();
        let dir = tmp_dir("trunc");
        let cfg = small_cfg(&dir);
        let mut input = Vec::new();
        submit(&mut input, 0, hip_spec());
        // A frame that dies mid-payload: unrecoverable for reading.
        let tail = to_bytes(&Request::Run);
        input.extend_from_slice(&(tail.len() as u32).to_le_bytes());
        input.extend_from_slice(&tail[..tail.len() - 1]);
        let mut output = Vec::new();
        let end = run_session(&cfg, &mut &input[..], &mut output).unwrap();
        assert_eq!(end, SessionEnd::Closed);
        let replies = read_replies(&output);
        assert!(matches!(&replies[0], Reply::Accepted { .. }));
        assert!(
            replies
                .iter()
                .any(|r| matches!(r, Reply::FrameError { detail } if detail.contains("mid-frame"))),
            "{replies:?}"
        );
        assert!(
            replies.iter().any(|r| matches!(r, Reply::JobDone { .. })),
            "accepted job must run despite the truncated stream: {replies:?}"
        );
        // And the result is durable: a fresh session resubmitting the
        // same spec is served from the store (journal says done).
        let mut input2 = Vec::new();
        submit(&mut input2, 0, hip_spec());
        crate::proto::write_message(&mut input2, &Request::Run).unwrap();
        let mut output2 = Vec::new();
        run_session(&cfg, &mut &input2[..], &mut output2).unwrap();
        let replies2 = read_replies(&output2);
        let (first, second) = (find_done(&replies), find_done(&replies2));
        assert_eq!(first, second, "reconnect must re-deliver, not re-run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn find_done(replies: &[Reply]) -> (u64, Vec<u8>) {
        replies
            .iter()
            .find_map(|r| match r {
                Reply::JobDone { cycles, report, .. } => Some((*cycles, report.clone())),
                _ => None,
            })
            .expect("a JobDone reply")
    }

    #[test]
    fn unbuildable_spec_fails_typed_instead_of_panicking() {
        // A spec that skipped validation (journal bytes admitted by a
        // looser build) must lower to a typed error, never a panic.
        let mut hostile = hip_spec();
        hostile.kernel = "EVIL".into();
        let err = hostile.lower().expect_err("EVIL must not lower");
        assert!(err.contains("EVIL"), "{err}");

        let mut hostile = hip_spec();
        hostile.dataset = 9;
        assert!(hostile.lower().is_err());
    }

    #[test]
    fn journaled_fs_width_three_is_shed_once_and_the_rest_runs() {
        // A pending FS job at SIMD width 3, journaled with the bytes a
        // build that admitted it writes, ahead of a HIP job: the first
        // boot sheds FS once (its build would have panicked) and runs
        // HIP, and a second boot finds nothing to run or log.
        let _flag = crate::signal::term_flag_shared();
        let dir = tmp_dir("fs-w3");
        let cfg = small_cfg(&dir);
        let fs = WireJobSpec::kernel("FS", Dataset::Tiny, Variant::Glsc, (1, 1), 3);
        let submitted: Vec<JournalRecord> = [fs.clone(), hip_spec()]
            .iter()
            .map(|spec| JournalRecord::Submitted {
                job: spec.id(),
                priority: 0,
                spec: spec.to_bytes(),
            })
            .collect();
        let path = dir.join("journal.log");
        let (mut journal, _) = Journal::open(&path).unwrap();
        for rec in &submitted {
            journal.append(rec).unwrap();
        }
        drop(journal);

        crate::service::take_log();
        let mut output = Vec::new();
        let end = run_session(&cfg, &mut &[][..], &mut output).unwrap();
        assert_eq!(end, SessionEnd::Closed);
        let replies = read_replies(&output);
        assert!(
            matches!(&replies[..], [Reply::JobDone { id, .. }, Reply::SweepDone { ok: 1, failed: 0, .. }]
                if *id == hip_spec().id()),
            "{replies:?}"
        );
        let log = crate::service::take_log();
        let dropped: Vec<&String> = log.iter().filter(|l| l.starts_with(&fs.id())).collect();
        assert!(
            matches!(&dropped[..], [line] if line.contains("does not build at SIMD width 3")),
            "{log:?}"
        );
        let (_, records) = Journal::open(&path).unwrap();
        assert_eq!(
            records[..3],
            [
                submitted[0].clone(),
                submitted[1].clone(),
                JournalRecord::Shed { job: fs.id() }
            ]
        );
        assert!(matches!(&records[3..], [JournalRecord::Done { .. }]));

        let mut output = Vec::new();
        let end = run_session(&cfg, &mut &[][..], &mut output).unwrap();
        assert_eq!(end, SessionEnd::Closed);
        assert!(read_replies(&output).is_empty());
        assert_eq!(crate::service::take_log(), Vec::<String>::new());
        assert_eq!(Journal::open(&path).unwrap().1, records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_spec_that_no_longer_decodes_is_shed_once() {
        // A pending submission journaled in the v2 spec layout (before
        // the memory-order field): the first boot drops it with one
        // `Shed` record, so it replays as settled and no later boot logs
        // or re-queues it again.
        let _flag = crate::signal::term_flag_shared();
        let dir = tmp_dir("stale");
        let cfg = small_cfg(&dir);
        let mut w = glsc_wire::Writer::new();
        2u32.encode(&mut w); // spec format version
        "HIP".to_string().encode(&mut w);
        None::<String>.encode(&mut w); // pattern
        0u8.encode(&mut w); // dataset
        1u8.encode(&mut w); // variant
        for shape in [4u32, 4, 4] {
            shape.encode(&mut w); // cores, tpc, width
        }
        for _ in 0..3 {
            None::<u64>.encode(&mut w); // chaos and both deadlines
        }
        let id = "HIP-T-GLSC-4x4-w4".to_string();
        let submitted = JournalRecord::Submitted {
            job: id.clone(),
            priority: 0,
            spec: w.into_bytes(),
        };
        let path = dir.join("journal.log");
        let (mut journal, _) = Journal::open(&path).unwrap();
        journal.append(&submitted).unwrap();
        drop(journal);
        let shed = JournalRecord::Shed { job: id.clone() };
        for boot in 0..2 {
            let mut output = Vec::new();
            let end = run_session(&cfg, &mut &[][..], &mut output).unwrap();
            assert_eq!(end, SessionEnd::Closed);
            assert!(read_replies(&output).is_empty(), "boot {boot}");
            let (_, records) = Journal::open(&path).unwrap();
            assert_eq!(records, [submitted.clone(), shed.clone()], "boot {boot}");
            assert_eq!(replay(&records)[&id].pending, None);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A pattern job past `MAX_PATTERN_INDEX_WORDS`: the grammar's
    /// largest, 819,200,000 index words (3,125 MiB a copy) at 32x8 w32.
    /// The tests below never run a queue that could hold it: a session
    /// ends with `Shutdown` until admission or boot has refused it.
    fn oversize_pattern_spec() -> WireJobSpec {
        WireJobSpec::pattern(
            "stride:1x1024*100000",
            Dataset::A,
            Variant::Glsc,
            (32, 8),
            32,
        )
    }

    #[test]
    fn oversize_pattern_submit_is_rejected_and_never_journaled() {
        let _flag = crate::signal::term_flag_shared();
        let dir = tmp_dir("oversize");
        let cfg = small_cfg(&dir);
        let mut input = Vec::new();
        submit(&mut input, 0, oversize_pattern_spec());
        crate::proto::write_message(&mut input, &Request::Shutdown).unwrap();
        let mut output = Vec::new();
        let end = run_session(&cfg, &mut &input[..], &mut output).unwrap();
        assert_eq!(end, SessionEnd::Shutdown);
        let replies = read_replies(&output);
        assert!(
            matches!(&replies[..], [Reply::Rejected { reason, .. }] if reason.contains("index words")),
            "{replies:?}"
        );
        let (_, records) = Journal::open(&dir.join("journal.log")).unwrap();
        assert!(records.is_empty(), "{records:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_oversize_pattern_is_shed_once_and_never_run() {
        // A pending oversize submission that an older build admitted:
        // the first boot drops it with one `Shed` record, and a later
        // boot that reaches end of stream finds nothing to run.
        let _flag = crate::signal::term_flag_shared();
        let dir = tmp_dir("oversize-boot");
        let cfg = small_cfg(&dir);
        let spec = oversize_pattern_spec();
        let id = spec.id();
        let submitted = JournalRecord::Submitted {
            job: id.clone(),
            priority: 0,
            spec: spec.to_bytes(),
        };
        let path = dir.join("journal.log");
        let (mut journal, _) = Journal::open(&path).unwrap();
        journal.append(&submitted).unwrap();
        drop(journal);
        let mut shutdown = Vec::new();
        crate::proto::write_message(&mut shutdown, &Request::Shutdown).unwrap();
        let shed = JournalRecord::Shed { job: id.clone() };
        for (boot, input, want) in [
            (0, &shutdown[..], SessionEnd::Shutdown),
            (1, &[][..], SessionEnd::Closed),
        ] {
            let mut output = Vec::new();
            let end = run_session(&cfg, &mut &input[..], &mut output).unwrap();
            assert_eq!(end, want, "boot {boot}");
            assert!(read_replies(&output).is_empty(), "boot {boot}");
            let (_, records) = Journal::open(&path).unwrap();
            assert_eq!(records, [submitted.clone(), shed.clone()], "boot {boot}");
            assert_eq!(replay(&records)[&id].pending, None);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tso_job_runs_under_tso_and_keys_its_own_id() {
        let _flag = crate::signal::term_flag_shared();
        let dir = tmp_dir("tso");
        let cfg = small_cfg(&dir);
        let mut spec = hip_spec();
        spec.memory_order = glsc_sim::MemoryOrder::Tso;
        let mut input = Vec::new();
        submit(&mut input, 0, spec);
        crate::proto::write_message(&mut input, &Request::Run).unwrap();
        let mut output = Vec::new();
        run_session(&cfg, &mut &input[..], &mut output).unwrap();
        let replies = read_replies(&output);
        assert!(
            matches!(&replies[0], Reply::Accepted { id } if id == "HIP-T-GLSC-1x2-w4-tso"),
            "{replies:?}"
        );
        let report = replies
            .iter()
            .find_map(|r| match r {
                Reply::JobDone { id, report, .. } => {
                    assert_eq!(id, "HIP-T-GLSC-1x2-w4-tso");
                    Some(report.clone())
                }
                _ => None,
            })
            .expect("TSO job must finish");
        // The report records the model the machine actually ran under —
        // proof the config axis survived the whole wire → job → machine
        // path, not just the id suffix. (GLSC-variant kernels store
        // through the GSU scatter path, so the scalar write buffers may
        // legitimately stay empty.)
        let decoded = glsc_bench::codec::decode_report(&report).unwrap();
        assert_eq!(decoded.memory_order, glsc_sim::MemoryOrder::Tso);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_job_is_stored_under_the_harness_key_rule() {
        // A plain and a chaos job: each report lands under the key a
        // figure would compute from the same spec, `job_key(&[id],
        // workload fingerprint, config fingerprint)`, with nothing folded
        // in for the chaos seed (the id and the armed watchdog carry it).
        use glsc_bench::codec::encode_report;
        use glsc_bench::store::{cfg_fingerprint, job_key};
        let _flag = crate::signal::term_flag_shared();
        let dir = tmp_dir("keys");
        let cfg = small_cfg(&dir);
        let specs = [
            hip_spec(),
            WireJobSpec {
                chaos: Some(5),
                ..hip_spec()
            },
        ];
        let mut input = Vec::new();
        for spec in &specs {
            submit(&mut input, 0, spec.clone());
        }
        crate::proto::write_message(&mut input, &Request::Run).unwrap();
        let mut output = Vec::new();
        run_session(&cfg, &mut &input[..], &mut output).unwrap();
        let store = JobStore::at(cfg.state_dir.join("cache"), true);
        let mut done = 0;
        for reply in read_replies(&output) {
            let Reply::JobDone { id, report, .. } = reply else {
                continue;
            };
            let spec = specs.iter().find(|s| s.id() == id).unwrap();
            let (machine, workload) = spec.lower().unwrap();
            let key = job_key(&[&id], workload.fingerprint(), cfg_fingerprint(&machine));
            let stored = store.load(&key).map(|r| encode_report(&r));
            assert_eq!(stored, Some(report), "{id}: no report under {key}");
            done += 1;
        }
        assert_eq!(done, specs.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_leaves_queued_jobs_pending_for_next_start() {
        let _flag = crate::signal::term_flag_shared();
        let dir = tmp_dir("pending");
        let cfg = small_cfg(&dir);
        let mut input = Vec::new();
        submit(&mut input, 0, hip_spec());
        crate::proto::write_message(&mut input, &Request::Shutdown).unwrap();
        let mut output = Vec::new();
        let end = run_session(&cfg, &mut &input[..], &mut output).unwrap();
        assert_eq!(end, SessionEnd::Shutdown);
        assert!(
            !read_replies(&output)
                .iter()
                .any(|r| matches!(r, Reply::JobDone { .. })),
            "shutdown must not run the queue"
        );

        // Next start replays the pending submission and runs it with no
        // client input at all.
        let mut output2 = Vec::new();
        let end = run_session(&cfg, &mut &[][..], &mut output2).unwrap();
        assert_eq!(end, SessionEnd::Closed);
        let replies = read_replies(&output2);
        assert!(
            matches!(&replies[0], Reply::JobDone { id, .. } if id == "HIP-T-GLSC-1x2-w4"),
            "{replies:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
