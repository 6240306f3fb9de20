//! Process-level drills for the two supervised-shutdown paths that the
//! kill-drill oracle does not cover:
//!
//! * **SIGTERM drain** — a real `kill -TERM` mid-sweep must drop the
//!   runs in flight, exit 0 printing nothing, and a rerun must finish
//!   with output byte-identical to an uninterrupted run.
//! * **Deadline → quarantine** — a cycle budget that one job of the
//!   sweep cannot finish within; the supervisor must trip its deadline
//!   once, quarantine it at once, degrade the sweep table to a `QUAR`
//!   cell, and exit nonzero while the healthy jobs still complete — also
//!   when the worker dies in the middle of journaling the quarantine.

use glsc_serve::journal::{Journal, JournalRecord};
use std::process::{Command, Output, Stdio};
use std::time::Duration;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_glsc-serve")
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("glsc-drain-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sweep_cmd(state: &std::path::Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(bin());
    cmd.arg("sweep")
        .arg("--state-dir")
        .arg(state)
        .args(extra)
        .env_remove("GLSC_SERVE_KILL");
    cmd
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn sigterm_drains_cleanly_and_rerun_matches_solo() {
    // All seven kernels on the two largest shapes: enough work that the
    // signal lands mid-sweep, small enough to finish fast afterwards.
    let extra = ["--shapes", "4x1,4x4"];

    let solo_dir = tmp_dir("solo");
    let solo = sweep_cmd(&solo_dir, &extra).output().expect("solo run");
    assert!(solo.status.success());
    let solo_out = stdout_of(&solo);

    let drain_dir = tmp_dir("drain");
    let mut drained = false;
    // The kill window races process startup; widen it until a drain
    // lands (a run that finishes before the signal is just retried).
    for wait_ms in [10u64, 25, 50, 100, 200, 400] {
        let _ = std::fs::remove_dir_all(&drain_dir);
        let child = sweep_cmd(&drain_dir, &extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn sweep");
        std::thread::sleep(Duration::from_millis(wait_ms));
        let _ = Command::new("kill")
            .arg("-TERM")
            .arg(child.id().to_string())
            .status();
        let out = child.wait_with_output().expect("wait");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            out.status.success(),
            "SIGTERM run exited nonzero (wait {wait_ms}ms): {err}"
        );
        if err.contains("drained cleanly") {
            // A drained sweep prints no table: partial output would
            // differ from the solo run and poison downstream diffs.
            assert_eq!(stdout_of(&out), "", "drained sweep printed a table");
            drained = true;
            break;
        }
        // Finished before the signal arrived; try a longer-lived window.
    }
    assert!(
        drained,
        "never caught the sweep mid-flight; widen the windows"
    );

    let resumed = sweep_cmd(&drain_dir, &extra).output().expect("resume run");
    assert!(resumed.status.success());
    assert_eq!(
        stdout_of(&resumed),
        solo_out,
        "post-drain rerun differs from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&solo_dir);
    let _ = std::fs::remove_dir_all(&drain_dir);
}

/// HIP Tiny GLSC needs 32,402 cycles at 1x1, so it trips a 20,000-cycle
/// deadline; at 1x4 it needs 8,766 and finishes.
const DEADLINE_SWEEP: [&str; 6] = [
    "--kernels",
    "HIP",
    "--shapes",
    "1x1,1x4",
    "--deadline-cycles",
    "20000",
];

/// Stderr lines of `out` that contain `needle`.
fn stderr_lines(out: &Output, needle: &str) -> usize {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter(|line| line.contains(needle))
        .count()
}

#[test]
fn deadline_job_quarantines_and_sweep_degrades() {
    let dir = tmp_dir("deadline");
    let out = sweep_cmd(&dir, &DEADLINE_SWEEP)
        .output()
        .expect("deadline sweep");

    assert_eq!(out.status.code(), Some(1), "degraded sweep must exit 1");
    let table = stdout_of(&out);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        table.contains("HIP-T-GLSC-1x1-w4") && table.contains("QUAR"),
        "missing QUAR cell:\n{table}"
    );
    assert!(
        table.contains("quarantined after a failed run"),
        "missing quarantine reason:\n{table}"
    );
    assert!(
        table.contains("HIP-T-GLSC-1x4-w4") && table.contains("1 ok, 1 failed"),
        "healthy job missing from degraded table:\n{table}"
    );
    // One trip, logged once, and no retry.
    assert_eq!(
        stderr_lines(&out, "cycle deadline"),
        1,
        "deadline trip not logged exactly once:\n{err}"
    );
    assert_eq!(stderr_lines(&out, "retrying"), 0, "{err}");

    // Rerunning against the same state dir replays the quarantine from
    // the journal: still exit 1, same table, and the poisoned job is not
    // simulated again.
    let rerun = sweep_cmd(&dir, &DEADLINE_SWEEP).output().expect("rerun");
    assert_eq!(rerun.status.code(), Some(1));
    assert_eq!(stdout_of(&rerun), table);
    assert_eq!(
        stderr_lines(&rerun, "cycle deadline"),
        0,
        "the quarantined job ran again:\n{}",
        String::from_utf8_lossy(&rerun.stderr)
    );

    // A worker killed while journaling the quarantine. Appends 1 and 2
    // are the two `Submitted` records, so append 3 is the poisoned job's
    // `Quarantined` record, and it is torn. The restart must rerun the
    // job, quarantine it once, and print the uninterrupted table.
    let torn = tmp_dir("deadline-torn");
    let killed = sweep_cmd(&torn, &DEADLINE_SWEEP)
        .env("GLSC_SERVE_KILL", "journal:3")
        .output()
        .expect("killed sweep");
    assert!(
        String::from_utf8_lossy(&killed.stderr).contains("injected crash"),
        "the kill did not fire:\n{}",
        String::from_utf8_lossy(&killed.stderr)
    );
    let restarted = sweep_cmd(&torn, &DEADLINE_SWEEP)
        .output()
        .expect("restarted sweep");
    assert_eq!(restarted.status.code(), Some(1));
    assert_eq!(stdout_of(&restarted), table);
    let (_, records) = Journal::open(&torn.join("journal.log")).expect("journal opens");
    let quarantines = records
        .iter()
        .filter(
            |r| matches!(r, JournalRecord::Quarantined { job, .. } if job == "HIP-T-GLSC-1x1-w4"),
        )
        .count();
    assert_eq!(quarantines, 1, "{records:?}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&torn);
}
