//! Hostile-client torture oracle for the protocol-facing service.
//!
//! Drives the real `glsc-serve serve` binary over stdin and a Unix
//! socket the way a broken or malicious client would — seeded frame
//! corruption, floods past queue capacity, mid-stream disconnects,
//! injected crashes, SIGTERM under load — and pins the service's two
//! invariants:
//!
//! 1. the process exits through its own state machine (exit 0/1, typed
//!    error frames), never a panic or abort of its own; and
//! 2. every *accepted* job's result is byte-identical to what an
//!    uninterrupted solo run produces, no matter what the client or the
//!    scheduler did around it — no double-runs, no tainted results.

use glsc_bench::jobspec::WireJobSpec;
use glsc_kernels::{Dataset, Variant, KERNEL_NAMES};
use glsc_rng::{rngs::StdRng, Rng, SeedableRng};
use glsc_serve::journal::{replay, Journal};
use glsc_serve::proto::{read_message, write_frame, write_message, Reply, Request};
use std::collections::BTreeMap;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::Duration;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_glsc-serve")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("glsc-torture-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(kernel: &str, shape: (usize, usize)) -> WireJobSpec {
    WireJobSpec::kernel(kernel, Dataset::Tiny, Variant::Glsc, shape, 4)
}

fn submit(buf: &mut Vec<u8>, priority: u8, spec: &WireJobSpec) {
    write_message(
        buf,
        &Request::Submit {
            priority,
            spec: spec.clone(),
        },
    )
    .expect("encode submit");
}

/// One full stdio session: spawn the server, feed it `input`, collect
/// its output. The writer runs on its own thread so a result stream
/// larger than the pipe buffer cannot deadlock the test.
fn serve_stdio(state: &Path, extra: &[&str], input: Vec<u8>, kill: Option<&str>) -> Output {
    let mut cmd = Command::new(bin());
    cmd.arg("serve")
        .arg("--stdio")
        .arg("--state-dir")
        .arg(state)
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .env_remove("GLSC_SERVE_KILL");
    if let Some(kill) = kill {
        cmd.env("GLSC_SERVE_KILL", kill);
    }
    let mut child = cmd.spawn().expect("spawn serve");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(&input);
    });
    let out = child.wait_with_output().expect("wait serve");
    let _ = writer.join();
    out
}

/// Decodes every reply frame the server wrote. Panics on a frame the
/// server itself produced being bad — the server must never emit
/// garbage, whatever it was fed.
fn replies(out: &Output) -> Vec<Reply> {
    let mut r = &out.stdout[..];
    let mut replies = Vec::new();
    loop {
        match read_message::<Reply>(&mut r) {
            Ok(Some(reply)) => replies.push(reply),
            Ok(None) => break,
            Err(e) => panic!("server emitted a bad frame: {e}"),
        }
    }
    replies
}

/// `id -> (cycles, report, chaos)` for every `JobDone` in the stream —
/// the byte-level oracle two runs are compared by.
fn done_map(replies: &[Reply]) -> BTreeMap<String, (u64, Vec<u8>, Option<String>)> {
    let mut map = BTreeMap::new();
    for reply in replies {
        if let Reply::JobDone {
            id,
            cycles,
            report,
            chaos,
        } = reply
        {
            map.insert(id.clone(), (*cycles, report.clone(), chaos.clone()));
        }
    }
    map
}

fn assert_no_panic(out: &Output) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "server panicked:\n{err}");
}

#[test]
fn fuzzed_frames_get_typed_errors_and_accepted_jobs_survive() {
    let dir = tmp_dir("fuzz");
    let good = [spec("HIP", (1, 2)), spec("GBC", (2, 1))];
    let mut rng = StdRng::seed_from_u64(0xF0221);

    // Interleave the two good submissions with seeded bursts of hostile
    // frames, tracking exactly what each burst must be answered with.
    let mut input = Vec::new();
    let mut want_frame_errors = 0u32;
    let mut want_rejected = 0u32;
    let mut want_accepted = 0u32;
    for s in &good {
        submit(&mut input, 0, s);
        want_accepted += 1;
        for _ in 0..4 {
            match rng.random_range(0..4u32) {
                0 => {
                    // Flip a payload or trailer byte: checksum mismatch,
                    // confined to the frame.
                    let mut frame = Vec::new();
                    write_message(&mut frame, &Request::Run).expect("encode");
                    let at = rng.random_range(4..frame.len());
                    frame[at] ^= 1 << rng.random_range(0..8u32);
                    input.extend_from_slice(&frame);
                    want_frame_errors += 1;
                }
                1 => {
                    // Well-framed garbage: decodes to no request (the
                    // first byte is never a valid tag), still confined.
                    let len = rng.random_range(1..24usize);
                    let mut garbage: Vec<u8> = (0..len)
                        .map(|_| rng.random_range(0..=255u32) as u8)
                        .collect();
                    garbage[0] = rng.random_range(3..=255u32) as u8;
                    write_frame(&mut input, &garbage).expect("encode");
                    want_frame_errors += 1;
                }
                2 => {
                    // A syntactically perfect frame carrying a hostile
                    // spec: typed rejection at admission, never queued.
                    let mut evil = spec("FS", (1, 1));
                    evil.cores = 9_999;
                    submit(&mut input, 0, &evil);
                    want_rejected += 1;
                }
                _ => {
                    // Resubmitting the job just accepted is idempotent.
                    submit(&mut input, 0, s);
                    want_accepted += 1;
                }
            }
        }
    }
    write_message(&mut input, &Request::Run).expect("encode run");

    let out = serve_stdio(&dir, &[], input, None);
    assert_no_panic(&out);
    assert!(
        out.status.success(),
        "fuzzed session exited nonzero: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replies = replies(&out);
    let count = |f: fn(&Reply) -> bool| replies.iter().filter(|r| f(r)).count() as u32;
    assert_eq!(
        count(|r| matches!(r, Reply::FrameError { .. })),
        want_frame_errors
    );
    assert_eq!(
        count(|r| matches!(r, Reply::Rejected { .. })),
        want_rejected
    );
    assert_eq!(
        count(|r| matches!(r, Reply::Accepted { .. })),
        want_accepted
    );
    let done = done_map(&replies);
    let mut want_ids: Vec<String> = good.iter().map(|s| s.id()).collect();
    want_ids.sort();
    assert_eq!(
        done.keys().cloned().collect::<Vec<_>>(),
        want_ids,
        "accepted jobs must run despite the garbage around them"
    );
    assert!(
        replies.last()
            == Some(&Reply::SweepDone {
                ok: 2,
                failed: 0,
                shed: 0
            }),
        "bad barrier: {:?}",
        replies.last()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_and_oversized_tails_still_run_accepted_jobs() {
    // A stream that dies mid-frame (or declares an absurd length) ends
    // the read loop — but the job accepted before the damage still runs
    // to a durable result before the process exits.
    let job = spec("HIP", (1, 2));
    for (tag, tail) in [
        ("truncated", {
            let mut whole = Vec::new();
            write_message(&mut whole, &Request::Run).expect("encode");
            whole[..whole.len() / 2].to_vec()
        }),
        ("oversized", {
            let mut bad = u32::MAX.to_le_bytes().to_vec();
            bad.extend_from_slice(&[0u8; 16]);
            bad
        }),
    ] {
        let dir = tmp_dir(&format!("tail-{tag}"));
        let mut input = Vec::new();
        submit(&mut input, 0, &job);
        input.extend_from_slice(&tail);

        let out = serve_stdio(&dir, &[], input, None);
        assert_no_panic(&out);
        assert!(out.status.success(), "{tag}: session exited nonzero");
        let replies = replies(&out);
        assert!(
            replies
                .iter()
                .any(|r| matches!(r, Reply::FrameError { .. })),
            "{tag}: damage not reported"
        );
        assert!(
            done_map(&replies).contains_key(&job.id()),
            "{tag}: accepted job never ran: {replies:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn flood_past_capacity_sheds_by_priority_and_recovers() {
    let dir = tmp_dir("flood");
    let extra = ["--queue-cap", "2"];
    // Five low-priority jobs against a 2-slot queue, then one
    // high-priority job that must evict a low-priority occupant.
    let low: Vec<WireJobSpec> = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 4)]
        .into_iter()
        .map(|shape| spec("FS", shape))
        .collect();
    let high = spec("HIP", (1, 2));

    let mut input = Vec::new();
    for s in &low {
        submit(&mut input, 1, s);
    }
    submit(&mut input, 9, &high);
    write_message(&mut input, &Request::Run).expect("encode run");

    let out = serve_stdio(&dir, &extra, input, None);
    assert_no_panic(&out);
    assert!(out.status.success());
    let first = replies(&out);
    let shed_ids: Vec<String> = first
        .iter()
        .filter_map(|r| match r {
            Reply::Shed { id, .. } => Some(id.clone()),
            _ => None,
        })
        .collect();
    // Three flood submissions bounced outright; the high-priority job
    // evicted the newest queued low-priority entry.
    assert_eq!(shed_ids.len(), 4, "sheds: {shed_ids:?}");
    assert!(
        shed_ids.contains(&low[1].id()),
        "the evicted victim must be named: {shed_ids:?}"
    );
    let done = done_map(&first);
    assert!(done.contains_key(&low[0].id()) && done.contains_key(&high.id()));
    assert_eq!(
        first.last(),
        Some(&Reply::SweepDone {
            ok: 2,
            failed: 0,
            shed: 4
        })
    );

    // Shedding is load shedding, not corruption: the shed jobs resubmit
    // cleanly on the next session — paced within capacity, one Run
    // barrier per batch — and the whole set completes.
    let mut input = Vec::new();
    for batch in low[1..].chunks(2) {
        for s in batch {
            submit(&mut input, 0, s);
        }
        write_message(&mut input, &Request::Run).expect("encode run");
    }
    let out = serve_stdio(&dir, &extra, input, None);
    assert_no_panic(&out);
    assert!(out.status.success());
    let second = replies(&out);
    assert!(
        !second.iter().any(|r| matches!(r, Reply::Shed { .. })),
        "paced resubmission must not shed: {second:?}"
    );
    assert_eq!(done_map(&second).len(), 4, "{second:?}");
    assert_eq!(
        second.last(),
        Some(&Reply::SweepDone {
            ok: 2,
            failed: 0,
            shed: 0
        })
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_client_mid_stream_keeps_results_durable_without_rerun() {
    let jobs = [spec("HIP", (1, 2)), spec("GBC", (2, 1))];

    // Solo baseline: one clean stdio session in a fresh state dir.
    let solo_dir = tmp_dir("drop-solo");
    let mut input = Vec::new();
    for s in &jobs {
        submit(&mut input, 0, s);
    }
    write_message(&mut input, &Request::Run).expect("encode run");
    let solo = serve_stdio(&solo_dir, &[], input, None);
    assert!(solo.status.success());
    let solo_done = done_map(&replies(&solo));
    assert_eq!(solo_done.len(), 2);

    // Socket server; the first client vanishes right after the run
    // barrier, before any result frame lands.
    let dir = tmp_dir("drop");
    let sock = std::env::temp_dir().join(format!("glsc-torture-drop-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let child = Command::new(bin())
        .arg("serve")
        .arg("--socket")
        .arg(&sock)
        .arg("--state-dir")
        .arg(&dir)
        .stderr(Stdio::piped())
        .env_remove("GLSC_SERVE_KILL")
        .spawn()
        .expect("spawn socket server");
    for _ in 0..200 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(sock.exists(), "server never bound its socket");

    {
        let mut stream = UnixStream::connect(&sock).expect("connect");
        for s in &jobs {
            write_message(
                &mut stream,
                &Request::Submit {
                    priority: 0,
                    spec: s.clone(),
                },
            )
            .expect("submit");
        }
        write_message(&mut stream, &Request::Run).expect("run");
        // Read the two admissions, then hang up mid-stream.
        let mut accepted = 0;
        while accepted < 2 {
            match read_message::<Reply>(&mut stream).expect("reply") {
                Some(Reply::Accepted { .. }) => accepted += 1,
                Some(other) => panic!("expected admissions first, got {other:?}"),
                None => panic!("server closed early"),
            }
        }
    } // <- connection dropped here, results still streaming

    // The server must finish both jobs to durability anyway, then serve
    // the reconnecting client from the store without re-running.
    let mut second_done = BTreeMap::new();
    let mut reconnect_ok = false;
    for _ in 0..200 {
        std::thread::sleep(Duration::from_millis(25));
        let Ok(mut stream) = UnixStream::connect(&sock) else {
            continue;
        };
        for s in &jobs {
            write_message(
                &mut stream,
                &Request::Submit {
                    priority: 0,
                    spec: s.clone(),
                },
            )
            .expect("resubmit");
        }
        write_message(&mut stream, &Request::Run).expect("rerun");
        let mut collected = Vec::new();
        loop {
            match read_message::<Reply>(&mut stream).expect("reply") {
                Some(Reply::SweepDone { ok, failed, shed }) => {
                    assert_eq!((ok, failed, shed), (2, 0, 0));
                    break;
                }
                Some(other) => collected.push(other),
                None => panic!("server closed mid-sweep"),
            }
        }
        write_message(&mut stream, &Request::Shutdown).expect("shutdown");
        second_done = done_map(&collected);
        reconnect_ok = true;
        break;
    }
    assert!(reconnect_ok, "never reconnected to the server");
    assert_eq!(
        second_done, solo_done,
        "reconnect results differ from the uninterrupted solo run"
    );

    let out = child.wait_with_output().expect("server exit");
    assert_eq!(
        out.status.code(),
        Some(0),
        "server did not exit by Shutdown"
    );
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!err.contains("panicked"), "server panicked:\n{err}");
    assert!(
        err.contains("[resume] cached:"),
        "reconnect re-ran finished jobs instead of serving the store:\n{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&solo_dir);
    let _ = std::fs::remove_file(&sock);
}

#[test]
fn kill_drill_over_the_protocol_path_matches_solo() {
    // The kill-drill guarantee, rerun end-to-end through the framed
    // protocol and the supervisor: kill the server at hostile
    // points (torn `Submitted` append, torn `Done` append after the
    // report reached the store, mid-run aborts), restart, and the final
    // results must be byte-identical to an uninterrupted session —
    // chaos counters of the rerun chaos job included.
    let mut chaotic = spec("GBC", (2, 2));
    chaotic.chaos = Some(24_333);
    let jobs = [spec("HIP", (4, 4)), chaotic];
    let mut input = Vec::new();
    for s in &jobs {
        submit(&mut input, 0, s);
    }
    write_message(&mut input, &Request::Run).expect("encode run");

    let solo_dir = tmp_dir("kill-solo");
    let solo = serve_stdio(&solo_dir, &[], input.clone(), None);
    assert!(solo.status.success());
    let solo_done = done_map(&replies(&solo));
    assert_eq!(solo_done.len(), 2);
    assert!(
        solo_done[&jobs[1].id()].2.is_some(),
        "chaos job carries no chaos stats"
    );

    let drill_dir = tmp_dir("kill-drill");
    // The second life journals both `Submitted` records, so its third
    // append is the first `Done`.
    for kill in ["journal:1", "journal:3", "cycles:1500", "cycles:5000"] {
        let out = serve_stdio(&drill_dir, &[], input.clone(), Some(kill));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success() && err.contains("[kill] injected crash"),
            "injected kill {kill} did not kill the server:\n{err}"
        );
    }
    let recovered = serve_stdio(&drill_dir, &[], input, None);
    assert_no_panic(&recovered);
    assert!(
        recovered.status.success(),
        "recovery session failed: {}",
        String::from_utf8_lossy(&recovered.stderr)
    );
    assert_eq!(
        done_map(&replies(&recovered)),
        solo_done,
        "post-crash results differ from the uninterrupted session"
    );
    let _ = std::fs::remove_dir_all(&solo_dir);
    let _ = std::fs::remove_dir_all(&drill_dir);
}

#[test]
fn sigterm_with_queued_jobs_drains_pending_and_replays() {
    // Drain under load: SIGTERM while the queue still holds unstarted
    // jobs must drop the runs in flight, leave every unfinished job
    // journaled as pending (never quarantined), exit 0, and a restart
    // must finish the sweep byte-identically to an undisturbed run. The
    // service runs one job at a time, so while a job runs the rest wait
    // unstarted.
    let jobs: Vec<WireJobSpec> = KERNEL_NAMES.iter().map(|k| spec(k, (4, 4))).collect();
    let mut input = Vec::new();
    for s in &jobs {
        submit(&mut input, 0, s);
    }
    write_message(&mut input, &Request::Run).expect("encode run");

    let solo_dir = tmp_dir("term-solo");
    let solo = serve_stdio(&solo_dir, &[], input.clone(), None);
    assert!(solo.status.success());
    let solo_done = done_map(&replies(&solo));
    assert_eq!(solo_done.len(), jobs.len());

    let drill_dir = tmp_dir("term-drill");
    let mut caught_mid_run = false;
    // The kill window races process startup and job runtimes; widen it
    // until the TERM lands while queued jobs are still unstarted.
    for wait_ms in [5u64, 10, 20, 40, 80, 160, 320, 640] {
        let _ = std::fs::remove_dir_all(&drill_dir);
        let mut cmd = Command::new(bin());
        cmd.arg("serve")
            .arg("--stdio")
            .arg("--state-dir")
            .arg(&drill_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .env_remove("GLSC_SERVE_KILL");
        let mut child = cmd.spawn().expect("spawn serve");
        let mut stdin = child.stdin.take().expect("stdin piped");
        let body = input.clone();
        let writer = std::thread::spawn(move || {
            let _ = stdin.write_all(&body);
            // Keep the pipe open: EOF must not end the session before
            // the signal arrives.
            std::thread::sleep(Duration::from_millis(2_000));
        });
        std::thread::sleep(Duration::from_millis(wait_ms));
        let _ = Command::new("kill")
            .arg("-TERM")
            .arg(child.id().to_string())
            .status();
        let out = child.wait_with_output().expect("wait serve");
        let _ = writer.join();
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            out.status.success(),
            "TERM run exited nonzero (wait {wait_ms}ms): {err}"
        );
        assert!(!err.contains("panicked"), "drain panicked:\n{err}");
        if err.contains("left pending in the journal") {
            caught_mid_run = true;
            // The journal must say so: nothing quarantined, and at
            // least one job still waiting as a pending submission.
            let (_, records) = Journal::open(&drill_dir.join("journal.log")).expect("journal");
            let ledgers = replay(&records);
            assert!(
                ledgers.values().all(|l| !l.quarantined),
                "drain quarantined a queued job"
            );
            assert!(
                ledgers.values().any(|l| l.pending.is_some()),
                "no pending submissions survived the drain"
            );
            break;
        }
        // Sweep finished before the signal: widen the window and retry.
    }
    assert!(
        caught_mid_run,
        "never caught the service with queued jobs; widen the windows"
    );

    let resumed = serve_stdio(&drill_dir, &[], input, None);
    assert_no_panic(&resumed);
    assert!(resumed.status.success());
    let resumed_replies = replies(&resumed);
    assert_eq!(
        done_map(&resumed_replies),
        solo_done,
        "post-drain results differ from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&solo_dir);
    let _ = std::fs::remove_dir_all(&drill_dir);
}

#[test]
fn resubmitted_done_jobs_do_not_pollute_the_admission_queue() {
    // Regression: a resubmission of an already-finished job journals a
    // fresh `Submitted`. If serving it from the cache does not close
    // that record out, the job replays as pending at every boot and its
    // stale queue slot sheds new work forever. With --queue-cap 2, two
    // polluting entries would shed *everything* a later session submits.
    let dir = tmp_dir("repollute");
    let extra = ["--queue-cap", "2"];
    let first = [spec("HIP", (1, 2)), spec("GBC", (2, 1))];

    // Session 1: run both jobs fresh.
    let mut input = Vec::new();
    for s in &first {
        submit(&mut input, 0, s);
    }
    write_message(&mut input, &Request::Run).expect("encode run");
    let out = serve_stdio(&dir, &extra, input, None);
    assert_no_panic(&out);
    assert_eq!(done_map(&replies(&out)).len(), 2);

    // Session 2: resubmit the same two (idempotent cache hits).
    let mut input = Vec::new();
    for s in &first {
        submit(&mut input, 0, s);
    }
    write_message(&mut input, &Request::Run).expect("encode run");
    let out = serve_stdio(&dir, &extra, input, None);
    assert_no_panic(&out);
    let second = replies(&out);
    assert_eq!(done_map(&second).len(), 2, "cached resubmission must serve");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("[resume] cached:"),
        "resubmission re-ran instead of serving the store"
    );

    // The journal must show nothing pending: the cached serves closed
    // out the resubmissions' `Submitted` records.
    let (_, records) = Journal::open(&dir.join("journal.log")).expect("journal opens");
    let ledgers = replay(&records);
    assert!(
        ledgers.values().all(|l| l.pending.is_none()),
        "cache-served resubmission left a pending journal entry"
    );

    // Session 3: two *new* jobs must get both queue slots — a polluted
    // queue would shed them.
    let mut input = Vec::new();
    for s in [spec("FS", (1, 2)), spec("GPS", (1, 2))] {
        submit(&mut input, 0, &s);
    }
    write_message(&mut input, &Request::Run).expect("encode run");
    let out = serve_stdio(&dir, &extra, input, None);
    assert_no_panic(&out);
    let third = replies(&out);
    assert!(
        !third.iter().any(|r| matches!(r, Reply::Shed { .. })),
        "stale pending entries shed fresh work: {third:?}"
    );
    let done = done_map(&third);
    assert!(
        done.contains_key("FS-T-GLSC-1x2-w4") && done.contains_key("GPS-T-GLSC-1x2-w4"),
        "new jobs missing from the third session: {done:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resubmitted_quarantined_jobs_do_not_pollute_the_admission_queue() {
    // The same regression for a quarantined job: it has no `Done` record,
    // so a `Submitted` journaled after its `Quarantined` must not mark it
    // pending. If it did, every later boot would re-queue it and stream a
    // `QUAR` frame for it unasked, and with --queue-cap 1 its stale slot
    // would shed every fresh job.
    let dir = tmp_dir("requarantine");
    let extra = ["--queue-cap", "1"];
    // HIP Tiny GLSC 1x1 needs 32,402 cycles: it trips a 2,000-cycle
    // deadline on its one attempt.
    let mut poison = spec("HIP", (1, 1));
    poison.deadline_cycles = Some(2_000);

    // Session 1 quarantines the job; session 2 resubmits it and is
    // answered from the journal.
    for session in 1..=2 {
        let mut input = Vec::new();
        submit(&mut input, 0, &poison);
        write_message(&mut input, &Request::Run).expect("encode run");
        let out = serve_stdio(&dir, &extra, input, None);
        assert_no_panic(&out);
        let replies = replies(&out);
        assert!(
            replies.iter().any(|r| matches!(r,
                Reply::JobFailed { id, label, .. } if *id == poison.id() && label == "QUAR")),
            "session {session}: {replies:?}"
        );
    }

    let (_, records) = Journal::open(&dir.join("journal.log")).expect("journal opens");
    let ledgers = replay(&records);
    assert!(
        ledgers.values().all(|l| l.pending.is_none()),
        "a resubmitted quarantined job was left pending in the journal"
    );

    // Session 3: a fresh job gets the one queue slot, and the quarantined
    // job is not run or reported again.
    let fresh = spec("FS", (1, 2));
    let mut input = Vec::new();
    submit(&mut input, 0, &fresh);
    write_message(&mut input, &Request::Run).expect("encode run");
    let out = serve_stdio(&dir, &extra, input, None);
    assert_no_panic(&out);
    let third = replies(&out);
    assert!(
        !third.iter().any(|r| matches!(r, Reply::Shed { .. })),
        "a stale pending entry shed fresh work: {third:?}"
    );
    assert!(
        !third
            .iter()
            .any(|r| matches!(r, Reply::JobFailed { id, .. } if *id == poison.id())),
        "the quarantined job was re-queued from the journal: {third:?}"
    );
    assert!(done_map(&third).contains_key(&fresh.id()), "{third:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
