//! Write-ahead journal of job state.
//!
//! An append-only log of [`JournalRecord`]s, one `glsc-wire` frame per
//! record (`len | payload | fnv64(payload)`, see [`glsc_wire::frame`]).
//!
//! The journal is the service's source of truth for where every job
//! stands (`submitted → done | quarantined`, or `shed` when admission
//! control refuses it). A submitted job with no `done` record reruns
//! from its spec on the next start; a job's progress inside a run is
//! never journaled, since rerunning a simulation costs less than
//! recording it. Appends are flushed and fsync'd before the supervisor
//! acts on them, so a `kill -9` at any byte boundary leaves at worst a
//! torn final frame.
//! Recovery scans from the start, keeps the longest prefix of intact
//! frames, **truncates the file to that prefix**, and treats the job as
//! being in whatever state the surviving records imply — a torn record
//! is indistinguishable from the crash having happened just before the
//! append, which is exactly the semantics the kill-drill oracle pins.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// One durable fact about a job, in the order the supervisor learns it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// Legacy: older builds journaled a CLI sweep job's entry with this
    /// record. It still decodes, so their journals open, but nothing
    /// writes it any more and [`replay`] ignores it — every job now
    /// enters as `Submitted`.
    Accepted {
        /// Stable job id.
        job: String,
    },
    /// Legacy: older builds announced a mid-run checkpoint with this
    /// record. It still decodes, so their journals open, but nothing
    /// writes it any more and [`replay`] ignores it — the job reruns
    /// from its spec.
    Running {
        /// Stable job id.
        job: String,
        /// Monotonic checkpoint sequence number (per job).
        seq: u64,
        /// Simulated cycle the checkpoint captures.
        cycle: u64,
    },
    /// The job finished; its report is in the service's result store.
    Done {
        /// Stable job id.
        job: String,
        /// Rendered chaos counters when the job ran under a fault plan
        /// (reprinted verbatim for cached jobs so recovered sweep output
        /// stays byte-identical to an uninterrupted run).
        chaos: Option<String>,
    },
    /// Legacy: builds that retried failed jobs journaled each failed
    /// attempt with this record. It still decodes, so their journals
    /// open, but nothing writes it any more and [`replay`] ignores it —
    /// only a `Quarantined` record settles a failed job.
    Failed {
        /// Stable job id.
        job: String,
        /// Why the attempt died.
        reason: String,
    },
    /// The job's one run failed, and it never runs again in this state
    /// dir.
    Quarantined {
        /// Stable job id.
        job: String,
        /// Failed attempts before the quarantine: 1 in new records, up
        /// to the old retry budget in journals of retrying builds.
        /// Nothing reads it; it stays so old journals still decode.
        failures: u32,
    },
    /// The job was admitted to the queue. The encoded
    /// [`WireJobSpec`](glsc_bench::jobspec::WireJobSpec) rides in the
    /// record so a queued-but-unstarted job survives a crash or drain:
    /// on restart the service rebuilds it from these bytes and runs it
    /// even if the client never reconnects. Resubmitting a job the
    /// journal already settled (`Done` or `Quarantined`) is answered
    /// from that record and owes no run.
    Submitted {
        /// Stable job id.
        job: String,
        /// Admission priority the client asked for.
        priority: u8,
        /// The wire-encoded job spec (validated before this was written).
        spec: Vec<u8>,
    },
    /// Admission control dropped the job (queue full, or evicted by a
    /// higher-priority submission). It will not run unless resubmitted.
    Shed {
        /// Stable job id.
        job: String,
    },
}

impl glsc_wire::Wire for JournalRecord {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        match self {
            JournalRecord::Accepted { job } => {
                0u8.encode(w);
                job.encode(w);
            }
            JournalRecord::Running { job, seq, cycle } => {
                1u8.encode(w);
                job.encode(w);
                seq.encode(w);
                cycle.encode(w);
            }
            JournalRecord::Done { job, chaos } => {
                2u8.encode(w);
                job.encode(w);
                chaos.encode(w);
            }
            JournalRecord::Failed { job, reason } => {
                3u8.encode(w);
                job.encode(w);
                reason.encode(w);
            }
            JournalRecord::Quarantined { job, failures } => {
                4u8.encode(w);
                job.encode(w);
                failures.encode(w);
            }
            JournalRecord::Submitted {
                job,
                priority,
                spec,
            } => {
                5u8.encode(w);
                job.encode(w);
                priority.encode(w);
                spec.encode(w);
            }
            JournalRecord::Shed { job } => {
                6u8.encode(w);
                job.encode(w);
            }
        }
    }

    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        let at = r.pos();
        Ok(match u8::decode(r)? {
            0 => JournalRecord::Accepted {
                job: String::decode(r)?,
            },
            1 => JournalRecord::Running {
                job: String::decode(r)?,
                seq: u64::decode(r)?,
                cycle: u64::decode(r)?,
            },
            2 => JournalRecord::Done {
                job: String::decode(r)?,
                chaos: Option::<String>::decode(r)?,
            },
            3 => JournalRecord::Failed {
                job: String::decode(r)?,
                reason: String::decode(r)?,
            },
            4 => JournalRecord::Quarantined {
                job: String::decode(r)?,
                failures: u32::decode(r)?,
            },
            5 => JournalRecord::Submitted {
                job: String::decode(r)?,
                priority: u8::decode(r)?,
                spec: Vec::<u8>::decode(r)?,
            },
            6 => JournalRecord::Shed {
                job: String::decode(r)?,
            },
            _ => {
                return Err(glsc_wire::WireError::Invalid {
                    at,
                    what: "journal record tag",
                })
            }
        })
    }
}

impl JournalRecord {
    /// The job this record is about.
    pub fn job(&self) -> &str {
        match self {
            JournalRecord::Accepted { job }
            | JournalRecord::Running { job, .. }
            | JournalRecord::Done { job, .. }
            | JournalRecord::Failed { job, .. }
            | JournalRecord::Quarantined { job, .. }
            | JournalRecord::Submitted { job, .. }
            | JournalRecord::Shed { job } => job,
        }
    }
}

/// Where the journal says a job stands, after replaying every surviving
/// record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobLedger {
    /// `Done` record, with its preserved chaos rendering.
    pub done: Option<Option<String>>,
    /// `Quarantined` record present.
    pub quarantined: bool,
    /// Latest submission still owed a run: `(priority, spec bytes)`.
    /// Cleared by `Done`, `Quarantined`, and `Shed`, and never set by a
    /// `Submitted` that follows either settling record — what remains
    /// after replay is exactly the set of queued-but-unstarted jobs a
    /// restart must pick back up.
    pub pending: Option<(u8, Vec<u8>)>,
}

impl JobLedger {
    /// Folds one record about this job into the ledger. [`replay`] and
    /// [`journal_apply`] both go through here, so the live session's
    /// in-memory view is always what a restart would replay.
    pub(crate) fn apply(&mut self, rec: &JournalRecord) {
        match rec {
            JournalRecord::Accepted { .. }
            | JournalRecord::Running { .. }
            | JournalRecord::Failed { .. } => {}
            JournalRecord::Done { chaos, .. } => {
                self.done = Some(chaos.clone());
                self.pending = None;
            }
            JournalRecord::Quarantined { .. } => {
                self.quarantined = true;
                self.pending = None;
            }
            JournalRecord::Submitted { priority, spec, .. } => {
                // A settled job's resubmission is served from its record;
                // marking it pending would re-queue it at every boot.
                if self.done.is_none() && !self.quarantined {
                    self.pending = Some((*priority, spec.clone()));
                }
            }
            JournalRecord::Shed { .. } => self.pending = None,
        }
    }
}

/// Replays records into per-job ledgers.
pub fn replay(records: &[JournalRecord]) -> HashMap<String, JobLedger> {
    let mut map: HashMap<String, JobLedger> = HashMap::new();
    for rec in records {
        map.entry(rec.job().to_string()).or_default().apply(rec);
    }
    map
}

/// Appends one record durably and folds it into `ledgers` by the rule
/// [`replay`] uses. The session and its run loop append every record
/// through here, so their in-memory view is always what a restart would
/// replay.
pub(crate) fn journal_apply(
    journal: &mut Journal,
    ledgers: &mut HashMap<String, JobLedger>,
    rec: JournalRecord,
) -> std::io::Result<()> {
    journal.append(&rec)?;
    ledgers
        .entry(rec.job().to_string())
        .or_default()
        .apply(&rec);
    Ok(())
}

/// The append-only journal file.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replaying every intact
    /// frame and truncating away a torn tail if the last append was cut
    /// short by a crash. Returns the journal positioned for appends plus
    /// the surviving records in write order.
    pub fn open(path: &Path) -> std::io::Result<(Self, Vec<JournalRecord>)> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid) = scan(&bytes);
        if valid < bytes.len() {
            eprintln!(
                "[journal] torn tail: keeping {valid} of {} bytes ({} intact record(s))",
                bytes.len(),
                records.len()
            );
            file.set_len(valid as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(valid as u64))?;
        Ok((Self { file }, records))
    }

    /// Appends one record durably: the frame is written, flushed, and
    /// fsync'd before this returns, so a state transition the supervisor
    /// acts on is never lost to a later crash.
    pub fn append(&mut self, rec: &JournalRecord) -> std::io::Result<()> {
        let frame = glsc_wire::frame(&glsc_wire::to_bytes(rec));
        let frame = crate::kill::mangle_journal_frame(frame);
        self.file.write_all(&frame)?;
        self.file.sync_all()?;
        crate::kill::after_journal_append();
        Ok(())
    }
}

/// Scans `bytes` for intact frames; returns the decoded records and the
/// byte length of the valid prefix. Stops at the first torn or corrupt
/// frame — everything after it is unreachable garbage by construction
/// (appends only ever land after a durable frame).
fn scan(bytes: &[u8]) -> (Vec<JournalRecord>, usize) {
    let mut records = Vec::new();
    let mut rest = bytes;
    while let Ok((payload, tail)) = glsc_wire::split_frame(rest) {
        match glsc_wire::from_bytes::<JournalRecord>(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => break,
        }
        rest = tail;
    }
    (records, bytes.len() - rest.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_message, write_message, Reply, Request};
    use crate::session::run_session;
    use glsc_bench::jobspec::WireJobSpec;
    use glsc_kernels::{Dataset, Variant};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("glsc-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.log")
    }

    fn sample() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Accepted { job: "a".into() },
            JournalRecord::Running {
                job: "a".into(),
                seq: 1,
                cycle: 5_000,
            },
            JournalRecord::Failed {
                job: "b".into(),
                reason: "wedged".into(),
            },
            JournalRecord::Done {
                job: "a".into(),
                chaos: Some("destructive=3".into()),
            },
            JournalRecord::Quarantined {
                job: "b".into(),
                failures: 3,
            },
        ]
    }

    #[test]
    fn append_reopen_replay() {
        let path = tmp("roundtrip");
        let (mut j, initial) = Journal::open(&path).unwrap();
        assert!(initial.is_empty());
        for rec in sample() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let (_, records) = Journal::open(&path).unwrap();
        assert_eq!(records, sample());
        let ledgers = replay(&records);
        let a = &ledgers["a"];
        assert_eq!(a.done, Some(Some("destructive=3".into())));
        assert!(ledgers["b"].quarantined);
    }

    #[test]
    fn torn_tail_is_the_prior_state() {
        let path = tmp("torn");
        let (mut j, _) = Journal::open(&path).unwrap();
        for rec in sample() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let full = std::fs::read(&path).unwrap();
        // Cut the file at every byte boundary inside the final frame: the
        // first four records must survive untouched, the fifth vanishes.
        let keep = {
            let (_, valid) = scan(&full[..full.len() - 1]);
            valid
        };
        for cut in keep..full.len() - 1 {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, records) = Journal::open(&path).unwrap();
            assert_eq!(records, sample()[..4].to_vec(), "cut at {cut}");
            // Recovery truncated the torn bytes away.
            assert_eq!(std::fs::read(&path).unwrap().len(), keep, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_mid_frame_drops_the_suffix() {
        let path = tmp("bitflip");
        let (mut j, _) = Journal::open(&path).unwrap();
        for rec in sample() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the third frame's payload.
        let (_, two) = scan(&bytes[..]);
        let _ = two;
        let frames: Vec<usize> = {
            let mut offs = Vec::new();
            let mut pos = 0;
            while pos + 4 <= bytes.len() {
                offs.push(pos);
                let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize + 12;
                pos += len;
            }
            offs
        };
        bytes[frames[2] + 6] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (_, records) = Journal::open(&path).unwrap();
        assert_eq!(records, sample()[..2].to_vec());
        // Appends after recovery land cleanly on the truncated prefix.
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(&JournalRecord::Accepted { job: "c".into() })
            .unwrap();
        drop(j);
        let (_, records) = Journal::open(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[2], JournalRecord::Accepted { job: "c".into() });
    }

    #[test]
    fn submitted_and_shed_replay_into_pending_state() {
        let path = tmp("pending");
        let (mut j, _) = Journal::open(&path).unwrap();
        let spec = vec![1u8, 2, 3];
        j.append(&JournalRecord::Submitted {
            job: "p".into(),
            priority: 7,
            spec: spec.clone(),
        })
        .unwrap();
        j.append(&JournalRecord::Submitted {
            job: "q".into(),
            priority: 0,
            spec: spec.clone(),
        })
        .unwrap();
        j.append(&JournalRecord::Shed { job: "q".into() }).unwrap();
        j.append(&JournalRecord::Submitted {
            job: "r".into(),
            priority: 1,
            spec: spec.clone(),
        })
        .unwrap();
        j.append(&JournalRecord::Done {
            job: "r".into(),
            chaos: None,
        })
        .unwrap();
        drop(j);
        let (_, records) = Journal::open(&path).unwrap();
        let ledgers = replay(&records);
        // p is still owed a run; q was shed; r finished.
        assert_eq!(ledgers["p"].pending, Some((7, spec)));
        assert_eq!(ledgers["q"].pending, None);
        assert_eq!(ledgers["r"].pending, None);
        assert!(ledgers["r"].done.is_some());
    }

    #[test]
    fn resubmitting_a_settled_job_leaves_it_not_pending() {
        // A client may resubmit a job the journal already settled; the
        // session answers it from the record, so the fresh `Submitted`
        // must not mark it owed a run — or every later boot re-queues it
        // and its stale slot sheds new work.
        let path = tmp("settled");
        let (mut j, _) = Journal::open(&path).unwrap();
        let submitted = |job: &str| JournalRecord::Submitted {
            job: job.into(),
            priority: 0,
            spec: vec![9u8],
        };
        for rec in [
            submitted("done"),
            JournalRecord::Done {
                job: "done".into(),
                chaos: None,
            },
            submitted("done"),
            submitted("poison"),
            JournalRecord::Failed {
                job: "poison".into(),
                reason: "cycle deadline".into(),
            },
            JournalRecord::Quarantined {
                job: "poison".into(),
                failures: 1,
            },
            submitted("poison"),
        ] {
            j.append(&rec).unwrap();
        }
        drop(j);
        let (_, records) = Journal::open(&path).unwrap();
        let ledgers = replay(&records);
        assert_eq!(ledgers["done"].pending, None);
        assert_eq!(ledgers["done"].done, Some(None));
        assert_eq!(ledgers["poison"].pending, None);
        assert!(ledgers["poison"].quarantined);
    }

    #[test]
    fn hostile_length_prefix_is_a_torn_tail_not_an_allocation() {
        // A frame header declaring u32::MAX (or any length beyond the
        // remaining file) must be treated as a torn tail: scan slices,
        // never allocates from the declared length, and open truncates
        // the garbage away while keeping the intact prefix.
        let path = tmp("hostile-len");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(&JournalRecord::Accepted { job: "ok".into() })
            .unwrap();
        j.append(&JournalRecord::Done {
            job: "ok".into(),
            chaos: None,
        })
        .unwrap();
        drop(j);
        let intact = std::fs::read(&path).unwrap();
        for declared in [u32::MAX, u32::MAX - 11, 1 << 30, intact.len() as u32 + 1] {
            let mut bytes = intact.clone();
            bytes.extend_from_slice(&declared.to_le_bytes());
            bytes.extend_from_slice(b"garbage that is much shorter than declared");
            std::fs::write(&path, &bytes).unwrap();
            let (_, records) = Journal::open(&path).unwrap();
            assert_eq!(records.len(), 2, "declared {declared}");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                intact,
                "declared {declared}: torn tail must be truncated away"
            );
        }
    }

    #[test]
    fn appends_survive_reopen_interleaving() {
        let path = tmp("interleave");
        for i in 0..5u64 {
            let (mut j, records) = Journal::open(&path).unwrap();
            assert_eq!(records.len() as u64, i);
            j.append(&JournalRecord::Failed {
                job: "x".into(),
                reason: format!("attempt {i}"),
            })
            .unwrap();
        }
        let (_, records) = Journal::open(&path).unwrap();
        assert_eq!(records.len(), 5);
    }

    #[test]
    fn legacy_running_records_decode_and_replay_as_unfinished() {
        // A journal written by older builds. A checkpointing build
        // accepted "old" and checkpointed it twice, then the process
        // died. A retrying build journaled every failed attempt: one job
        // failed twice and still had retries left, another failed three
        // times and was quarantined. Every record still decodes, and
        // replay ignores `Accepted`, `Running` and `Failed`: "old" and the
        // twice-failed job are unfinished, and only the `Quarantined`
        // record settles the third.
        let _flag = crate::signal::term_flag_shared();
        let path = tmp("legacy");
        let retried = WireJobSpec::kernel("HIP", Dataset::Tiny, Variant::Glsc, (1, 2), 4);
        let poison = WireJobSpec::kernel("HIP", Dataset::Tiny, Variant::Glsc, (4, 4), 4);
        let submitted = |spec: &WireJobSpec| JournalRecord::Submitted {
            job: spec.id(),
            priority: 0,
            spec: spec.to_bytes(),
        };
        let failed = |spec: &WireJobSpec| JournalRecord::Failed {
            job: spec.id(),
            reason: "exceeded the 2000-cycle deadline".into(),
        };
        let mut legacy = vec![JournalRecord::Accepted { job: "old".into() }];
        for seq in 1..=2u64 {
            legacy.push(JournalRecord::Running {
                job: "old".into(),
                seq,
                cycle: seq * 20_000,
            });
        }
        legacy.extend([submitted(&retried), failed(&retried), failed(&retried)]);
        legacy.extend([submitted(&poison), failed(&poison), failed(&poison)]);
        legacy.extend([
            failed(&poison),
            JournalRecord::Quarantined {
                job: poison.id(),
                failures: 3,
            },
        ]);
        let (mut j, _) = Journal::open(&path).unwrap();
        for rec in &legacy {
            j.append(rec).unwrap();
        }
        drop(j);
        let (_, records) = Journal::open(&path).unwrap();
        assert_eq!(records, legacy);
        let ledgers = replay(&records);
        assert_eq!(ledgers["old"], JobLedger::default());
        assert_eq!(
            ledgers[&retried.id()],
            JobLedger {
                pending: Some((0, retried.to_bytes())),
                ..JobLedger::default()
            }
        );
        assert_eq!(
            ledgers[&poison.id()],
            JobLedger {
                quarantined: true,
                ..JobLedger::default()
            }
        );

        // A session that resubmits both runs the twice-failed job once
        // and answers the quarantined one from its record.
        let mut input = Vec::new();
        for spec in [&retried, &poison] {
            let submit = Request::Submit {
                priority: 0,
                spec: spec.clone(),
            };
            write_message(&mut input, &submit).unwrap();
        }
        write_message(&mut input, &Request::Run).unwrap();
        let mut output = Vec::new();
        let cfg = crate::ServiceConfig::new(path.parent().unwrap().to_path_buf());
        run_session(&cfg, &mut &input[..], &mut output).unwrap();
        let mut frames = &output[..];
        let mut quarantined = false;
        while let Some(reply) = read_message::<Reply>(&mut frames).unwrap() {
            if let Reply::JobFailed { id, label, .. } = reply {
                assert!(id == poison.id() && label == "QUAR", "{id}: {label}");
                quarantined = true;
            }
        }
        assert!(quarantined);
        // The twice-failed job was re-queued from the journal, so its
        // resubmission is a duplicate and journals nothing; its one run
        // appends one `Done`.
        let (_, after) = Journal::open(&path).unwrap();
        assert_eq!(
            after[records.len()..],
            [
                submitted(&poison),
                JournalRecord::Done {
                    job: retried.id(),
                    chaos: None
                }
            ]
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
