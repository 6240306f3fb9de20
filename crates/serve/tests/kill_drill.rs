//! The kill-drill recovery oracle.
//!
//! For every kernel × Fig. 6 shape: run the service worker to completion
//! undisturbed (solo), then run it again in a fresh state dir while
//! killing it — `kill -9` semantics via `abort()` — at hostile points
//! (mid-journal-append on the `Submitted` and on the `Done` record,
//! mid-run), restarting after each death. Every injected kill must
//! actually fire, and the final, undisturbed invocation must exit 0 and
//! print a sweep table **byte-identical** to the solo run's. Recovery is
//! a rerun from the journaled spec, so further drills pin that a chaos
//! job reruns to the same counters, that a multi-job sweep never
//! re-simulates a job it already finished, and that a state dir left by
//! a checkpointing build reruns its jobs without reading the old
//! checkpoint files. Every drill compares a build with itself, so one
//! more test pins the table's bytes.
//!
//! Set `GLSC_DRILL_KERNELS=HIP,GBC` to bound the matrix (CI smoke).

use glsc_bench::jobspec::WireJobSpec;
use glsc_kernels::{build_named, Dataset, Variant};
use glsc_serve::journal::{Journal, JournalRecord};
use glsc_sim::{Machine, MachineConfig, SlicedRun};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SHAPES: [(usize, usize); 4] = [(1, 1), (1, 4), (4, 1), (4, 4)];
const ALL_KERNELS: [&str; 7] = ["GBC", "FS", "GPS", "HIP", "SMC", "MFP", "TMS"];

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_glsc-serve")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("glsc-drill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn kernels() -> Vec<String> {
    match std::env::var("GLSC_DRILL_KERNELS") {
        Ok(list) if !list.is_empty() => list.split(',').map(|s| s.trim().to_string()).collect(),
        _ => ALL_KERNELS.iter().map(|k| k.to_string()).collect(),
    }
}

/// One worker invocation: a sweep of `kernels` × `shapes` (the CLI's
/// comma lists) over `state`, optionally with an injected kill.
fn invoke_sweep(
    state: &Path,
    kernels: &str,
    shapes: &str,
    extra: &[&str],
    kill: Option<&str>,
) -> Output {
    let mut cmd = Command::new(bin());
    cmd.arg("sweep")
        .arg("--state-dir")
        .arg(state)
        .arg("--kernels")
        .arg(kernels)
        .arg("--shapes")
        .arg(shapes)
        .args(extra)
        .env_remove("GLSC_SERVE_KILL");
    if let Some(kill) = kill {
        cmd.env("GLSC_SERVE_KILL", kill);
    }
    cmd.output().expect("spawn glsc-serve")
}

/// A single-job sweep.
fn invoke(
    state: &Path,
    kernel: &str,
    shape: (usize, usize),
    extra: &[&str],
    kill: Option<&str>,
) -> Output {
    let shape = format!("{}x{}", shape.0, shape.1);
    invoke_sweep(state, kernel, &shape, extra, kill)
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The worker died of the injected kill — not of a usage error, a panic,
/// or anything else that also exits nonzero.
fn assert_killed(out: &Output, kill: &str, tag: &str) {
    let err = stderr_of(out);
    assert!(
        !out.status.success() && err.contains("[kill] injected crash"),
        "{tag}: injected kill {kill} did not kill the worker (status {:?}):\n{err}",
        out.status
    );
}

/// `Done` records per job id in the state dir's journal.
fn done_counts(state: &Path) -> BTreeMap<String, usize> {
    let (_, records) = Journal::open(&state.join("journal.log")).expect("journal opens");
    let mut counts = BTreeMap::new();
    for r in &records {
        if let JournalRecord::Done { job, .. } = r {
            *counts.entry(job.clone()).or_insert(0) += 1;
        }
    }
    counts
}

/// Runs the solo baseline, then the kill gauntlet, and asserts the
/// recovered sweep's stdout is byte-identical to solo's.
fn drill(kernel: &str, shape: (usize, usize), extra: &[&str], tag: &str) {
    let solo_dir = tmp_dir(&format!("solo-{tag}"));
    let solo = invoke(&solo_dir, kernel, shape, extra, None);
    assert!(
        solo.status.success(),
        "{tag}: solo run failed: {}",
        stderr_of(&solo)
    );
    let solo_out = stdout_of(&solo);
    assert!(solo_out.contains("cycles"), "{tag}: empty solo table");

    let drill_dir = tmp_dir(&format!("drill-{tag}"));
    // Mid-journal-append on the first record (`Submitted` torn), then on
    // the second (`Done` torn after the report reached the store, so
    // recovery must not trust the store without the record), then a
    // plain mid-run kill that throws the whole attempt away.
    for kill in ["journal:1", "journal:2", "cycles:1500"] {
        let out = invoke(&drill_dir, kernel, shape, extra, Some(kill));
        assert_killed(&out, kill, tag);
    }
    let recovered = invoke(&drill_dir, kernel, shape, extra, None);
    assert!(
        recovered.status.success(),
        "{tag}: recovery run failed: {}",
        stderr_of(&recovered)
    );
    assert_eq!(
        stdout_of(&recovered),
        solo_out,
        "{tag}: recovered sweep output differs from the uninterrupted run"
    );
    assert!(
        !drill_dir.join("checkpoints").exists(),
        "{tag}: the service wrote a checkpoints directory"
    );
    let _ = std::fs::remove_dir_all(&solo_dir);
    let _ = std::fs::remove_dir_all(&drill_dir);
}

#[test]
fn kill_drill_every_kernel_and_shape() {
    for kernel in kernels() {
        for shape in SHAPES {
            drill(
                &kernel,
                shape,
                &[],
                &format!("{kernel}-{}x{}", shape.0, shape.1),
            );
        }
    }
}

#[test]
fn kill_drill_chaos_counters_survive_recovery() {
    // A chaos job reruns from its fault-plan seed after every death; the
    // recovered table (which prints the chaos line) must still match
    // solo bit-for-bit.
    let extra = ["--chaos-seed", "24333"];
    let solo_dir = tmp_dir("chaos-solo");
    let solo = invoke(&solo_dir, "GBC", (2, 2), &extra, None);
    assert!(solo.status.success());
    let solo_out = stdout_of(&solo);
    assert!(
        solo_out.contains("chaos:"),
        "chaos line missing:\n{solo_out}"
    );

    let drill_dir = tmp_dir("chaos-drill");
    // Only the first life journals `Submitted` (later lives find the job
    // pending in the journal, so their submission is a duplicate), so
    // `journal:2` tears the first life's `Done` and `journal:1` a later
    // life's.
    for kill in ["journal:2", "cycles:2000", "journal:1", "cycles:6000"] {
        let out = invoke(&drill_dir, "GBC", (2, 2), &extra, Some(kill));
        assert_killed(&out, kill, "chaos");
    }
    let recovered = invoke(&drill_dir, "GBC", (2, 2), &extra, None);
    assert!(
        recovered.status.success(),
        "chaos recovery failed: {}",
        stderr_of(&recovered)
    );
    assert_eq!(stdout_of(&recovered), solo_out);
    let _ = std::fs::remove_dir_all(&solo_dir);
    let _ = std::fs::remove_dir_all(&drill_dir);
}

#[test]
fn randomized_kill_points_converge() {
    // Seeded pseudo-random mid-run kill points: however the deaths land,
    // restarts converge and the final table matches solo. The sequence
    // is deterministic (fixed seed) so a failure reproduces.
    let solo_dir = tmp_dir("rand-solo");
    let solo = invoke(&solo_dir, "HIP", (4, 4), &[], None);
    assert!(solo.status.success());
    let solo_out = stdout_of(&solo);

    use glsc_rng::{rngs::StdRng, Rng, SeedableRng};
    let drill_dir = tmp_dir("rand-drill");
    let mut rng = StdRng::seed_from_u64(0xD211);
    let mut deaths = 0;
    for round in 0..12 {
        let kill = format!("cycles:{}", rng.random_range(300..8_300u64));
        let out = invoke(&drill_dir, "HIP", (4, 4), &[], Some(&kill));
        if out.status.success() {
            // The job finished before the kill point — done.
            assert_eq!(stdout_of(&out), solo_out, "round {round}");
            let _ = std::fs::remove_dir_all(&solo_dir);
            let _ = std::fs::remove_dir_all(&drill_dir);
            return;
        }
        assert_killed(&out, &kill, &format!("round {round}"));
        deaths += 1;
    }
    assert!(deaths > 0);
    let recovered = invoke(&drill_dir, "HIP", (4, 4), &[], None);
    assert!(recovered.status.success());
    assert_eq!(stdout_of(&recovered), solo_out);
    let _ = std::fs::remove_dir_all(&solo_dir);
    let _ = std::fs::remove_dir_all(&drill_dir);
}

#[test]
fn sweep_drill_never_resimulates_finished_jobs() {
    // Four jobs, run one at a time in this order: HIP 4x4 (3k cycles),
    // HIP 1x1 (32k), GBC 4x4 (7k), GBC 1x1 (39k); a later life runs the
    // jobs the journal left pending first, in that order, and serves the
    // finished ones it resubmits from the store. Each `cycles:` kill
    // lands in a 1x1 job after some jobs are done (20000: in HIP 1x1;
    // 35000: in GBC 1x1); the journal must end with exactly one `Done`
    // per job across every life, so no finished job was simulated twice.
    let (kernels, shapes) = ("HIP,GBC", "4x4,1x1");
    let solo_dir = tmp_dir("sweep-solo");
    let solo = invoke_sweep(&solo_dir, kernels, shapes, &[], None);
    assert!(solo.status.success(), "{}", stderr_of(&solo));
    let solo_out = stdout_of(&solo);
    assert!(solo_out.contains("== 4 ok, 0 failed =="), "{solo_out}");

    let dir = tmp_dir("sweep-drill");
    let mut finished = 0;
    for kill in ["cycles:20000", "cycles:35000"] {
        let out = invoke_sweep(&dir, kernels, shapes, &[], Some(kill));
        assert_killed(&out, kill, "sweep");
        let done = done_counts(&dir);
        assert!(
            done.values().all(|&n| n == 1),
            "{kill}: a job finished twice: {done:?}"
        );
        assert!(
            done.len() > finished && done.len() < 4,
            "{kill}: expected some but not all jobs done, got {done:?}"
        );
        finished = done.len();
    }
    let recovered = invoke_sweep(&dir, kernels, shapes, &[], None);
    assert!(recovered.status.success(), "{}", stderr_of(&recovered));
    assert_eq!(stdout_of(&recovered), solo_out);
    let done = done_counts(&dir);
    assert_eq!(done.len(), 4, "{done:?}");
    assert!(
        done.values().all(|&n| n == 1),
        "a finished job was re-simulated: {done:?}"
    );
    let _ = std::fs::remove_dir_all(&solo_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Encoded snapshot of `kernel` (Tiny, GLSC, 4x4) after `cycles`
/// simulated cycles.
fn snapshot_bytes(kernel: &str, cycles: u64) -> Vec<u8> {
    let cfg = MachineConfig::paper(4, 4, 4);
    let workload = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect(kernel);
    let mut m = Machine::new(cfg);
    workload.image.apply(m.mem_mut().backing_mut());
    m.load_program(workload.program);
    let mut run = SlicedRun::new(&m);
    let report = m.run_for(&mut run, cycles).expect("slice runs");
    assert!(report.is_none(), "{kernel} finished within {cycles} cycles");
    m.snapshot().to_bytes()
}

#[test]
fn legacy_checkpointing_state_dir_reruns_from_spec() {
    // A state dir as a checkpointing build left it when it died mid-run:
    // each job `Accepted`, then `Running{seq,cycle}` three times, no
    // `Done`, with a checkpoint file per job under `checkpoints/`. HIP's
    // is stale — a valid snapshot, but of GBC, so resuming from it would
    // print GBC's cycle count under HIP's name — and GBC's is torn.
    let (kernels, shapes) = ("HIP,GBC", "4x4");
    let solo_dir = tmp_dir("legacy-solo");
    let solo = invoke_sweep(&solo_dir, kernels, shapes, &[], None);
    assert!(solo.status.success(), "{}", stderr_of(&solo));
    let solo_out = stdout_of(&solo);

    let id =
        |kernel: &str| WireJobSpec::kernel(kernel, Dataset::Tiny, Variant::Glsc, (4, 4), 4).id();
    let (hip, gbc) = (id("HIP"), id("GBC"));
    let dir = tmp_dir("legacy");
    let (mut journal, _) = Journal::open(&dir.join("journal.log")).expect("journal");
    for job in [&hip, &gbc] {
        journal
            .append(&JournalRecord::Accepted { job: job.clone() })
            .expect("append");
        for seq in 1..=3u64 {
            journal
                .append(&JournalRecord::Running {
                    job: job.clone(),
                    seq,
                    cycle: seq * 500,
                })
                .expect("append");
        }
    }
    drop(journal);
    let checkpoints = dir.join("checkpoints");
    std::fs::create_dir_all(&checkpoints).expect("checkpoints dir");
    let stale = snapshot_bytes("GBC", 1_500);
    let torn = stale[..stale.len() / 2].to_vec();
    let stale_path = checkpoints.join(format!("{hip}.ckpt"));
    let torn_path = checkpoints.join(format!("{gbc}.ckpt"));
    std::fs::write(&stale_path, &stale).expect("write stale checkpoint");
    std::fs::write(&torn_path, &torn).expect("write torn checkpoint");

    let out = invoke_sweep(&dir, kernels, shapes, &[], None);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(
        stdout_of(&out),
        solo_out,
        "legacy state dir did not rerun to the solo table"
    );
    // The old files were never consulted: both are exactly as the old
    // build left them (it deleted a checkpoint it found damaged, and one
    // whose job finished), and nothing about them was logged.
    assert_eq!(std::fs::read(&stale_path).expect("stale file"), stale);
    assert_eq!(std::fs::read(&torn_path).expect("torn file"), torn);
    let err = stderr_of(&out);
    assert!(!err.contains("checkpoint"), "{err}");
    let done = done_counts(&dir);
    assert_eq!(done.get(&hip), Some(&1), "{done:?}");
    assert_eq!(done.get(&gbc), Some(&1), "{done:?}");
    let _ = std::fs::remove_dir_all(&solo_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_table_bytes_are_pinned() {
    // The drills above compare a build with itself; this holds the table
    // to fixed bytes: header, row layout, cycle counts and summary.
    let dir = tmp_dir("pinned");
    let out = invoke_sweep(&dir, "HIP", "1x1,4x4", &[], None);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(
        stdout_of(&out),
        "=== glsc-serve sweep: 2 job(s) ===\n\
         HIP-T-GLSC-1x1-w4         32402 cycles\n\
         HIP-T-GLSC-4x4-w4          3078 cycles\n\
         == 2 ok, 0 failed ==\n"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_kill_spec_is_a_usage_error() {
    // A stale or misspelt drill must fail loudly: exit 2 before touching
    // the state dir, never run the sweep with no kill armed.
    for bad in [
        "checkpoint:2",
        "journal",
        "journal:",
        "cycles:soon",
        "journal:-1",
        ":3",
        "mid-run:1",
    ] {
        let dir = tmp_dir("bad-kill");
        let out = invoke(&dir, "HIP", (1, 1), &[], Some(bad));
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{bad}: {err}");
        assert!(err.contains("GLSC_SERVE_KILL"), "{bad}: {err}");
        assert!(stdout_of(&out).is_empty(), "{bad}: printed a table");
        assert!(!dir.exists(), "{bad}: touched the state dir");
    }
}
