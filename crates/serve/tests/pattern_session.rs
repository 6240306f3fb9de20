//! Protocol drill for the pattern namespace: a pattern job submitted
//! over the wire runs through the supervisor and comes back as a
//! `JobDone` frame, and hostile pattern specs are typed `Rejected`
//! replies — never a server-side panic (which would quarantine the job
//! and poison the journal for every restart after).

use glsc_bench::jobspec::WireJobSpec;
use glsc_kernels::{Dataset, Variant};
use glsc_serve::proto::{read_message, write_message, Reply, Request};
use glsc_serve::session::{run_session, SessionEnd};
use glsc_serve::ServiceConfig;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("glsc-serve-pat-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn submit(buf: &mut Vec<u8>, spec: WireJobSpec) {
    write_message(buf, &Request::Submit { priority: 0, spec }).unwrap();
}

fn read_replies(mut bytes: &[u8]) -> Vec<Reply> {
    let mut replies = Vec::new();
    while let Some(reply) = read_message::<Reply>(&mut bytes).unwrap() {
        replies.push(reply);
    }
    replies
}

#[test]
fn pattern_job_over_the_wire_returns_job_done() {
    let dir = tmp_dir("done");
    let cfg = ServiceConfig::new(dir.clone());

    let spec = WireJobSpec::pattern(
        "conflict:p=0.25x64*8",
        Dataset::Tiny,
        Variant::Glsc,
        (1, 2),
        4,
    );
    let id = spec.id();
    let mut input = Vec::new();
    submit(&mut input, spec);
    write_message(&mut input, &Request::Run).unwrap();

    let mut output = Vec::new();
    let end = run_session(&cfg, &mut &input[..], &mut output).unwrap();
    assert_eq!(end, SessionEnd::Closed);
    let replies = read_replies(&output);
    assert!(
        matches!(&replies[0], Reply::Accepted { id: got } if *got == id),
        "{replies:?}"
    );
    match &replies[1] {
        Reply::JobDone {
            id: got,
            cycles,
            report,
            chaos,
        } => {
            assert_eq!(got, &id);
            let decoded = glsc_bench::codec::decode_report(report).unwrap();
            assert_eq!(decoded.cycles, *cycles);
            assert!(*cycles > 0);
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
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_pattern_specs_are_rejected_not_fatal() {
    let dir = tmp_dir("hostile");
    let cfg = ServiceConfig::new(dir.clone());

    let mut input = Vec::new();
    for bad in ["stride:0x16", "evil:1", "", "stride:4x1024*999999999"] {
        submit(
            &mut input,
            WireJobSpec::pattern(bad, Dataset::Tiny, Variant::Glsc, (1, 2), 4),
        );
    }
    // A healthy job after the hostile ones proves the session survived.
    let good = WireJobSpec::pattern("stride:1x32*4", Dataset::Tiny, Variant::Glsc, (1, 2), 4);
    let good_id = good.id();
    submit(&mut input, good);
    write_message(&mut input, &Request::Run).unwrap();

    let mut output = Vec::new();
    run_session(&cfg, &mut &input[..], &mut output).unwrap();
    let replies = read_replies(&output);
    for reply in &replies[..4] {
        assert!(
            matches!(reply, Reply::Rejected { reason, .. } if reason.contains("pattern")),
            "{reply:?}"
        );
    }
    assert!(
        matches!(&replies[4], Reply::Accepted { id } if *id == good_id),
        "{replies:?}"
    );
    assert!(
        matches!(&replies[5], Reply::JobDone { id, .. } if *id == good_id),
        "{replies:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pattern_results_resume_from_the_store_bit_identically() {
    // Same state dir, same spec, two sessions: the second serves the
    // cached result and must stream the identical report bytes.
    let dir = tmp_dir("resume");
    let cfg = ServiceConfig::new(dir.clone());

    let run_once = || {
        let spec = WireJobSpec::pattern("block:8/8*8", Dataset::Tiny, Variant::Glsc, (1, 2), 4);
        let mut input = Vec::new();
        submit(&mut input, spec);
        write_message(&mut input, &Request::Run).unwrap();
        let mut output = Vec::new();
        run_session(&cfg, &mut &input[..], &mut output).unwrap();
        read_replies(&output)
            .into_iter()
            .find_map(|r| match r {
                Reply::JobDone { report, .. } => Some(report),
                _ => None,
            })
            .expect("JobDone frame")
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "cached pattern result diverged");
    let _ = std::fs::remove_dir_all(&dir);
}
