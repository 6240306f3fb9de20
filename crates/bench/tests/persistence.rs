//! Durable job-store correctness: every kernel's `RunReport` must survive
//! the encode → disk → decode round trip exactly, resume reads must only
//! ever return byte-faithful reports (stale-format entries are never
//! opened; the job re-runs instead), and job keys must separate jobs
//! that differ only in machine configuration.

use glsc_bench::codec::encode_report;
use glsc_bench::store::{cfg_fingerprint, job_key};
use glsc_bench::{run_workload_cached, JobStore};
use glsc_kernels::{build_named, run_workload, Dataset, Variant, KERNEL_NAMES};
use glsc_sim::{MachineConfig, RunReport};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// Fresh per-test scratch directory (no tempfile dependency).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "glsc-persistence-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_kernel_report_round_trips_through_the_store() {
    let dir = scratch("kernels");
    let store = JobStore::at(dir.clone(), true);
    let cfg = MachineConfig::paper(2, 2, 4);
    for kernel in KERNEL_NAMES {
        let w = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
        let out = run_workload(&w, &cfg).unwrap();
        store.save(kernel, &out.report);
        let loaded = store
            .load(kernel)
            .unwrap_or_else(|| panic!("{kernel}: stored report did not load"));
        assert_eq!(loaded, out.report, "{kernel}: report changed in transit");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_round_trips_and_resume_skips_the_simulation() {
    let dir = scratch("roundtrip");
    let cfg = MachineConfig::paper(1, 2, 4);
    let w = build_named("HIP", Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");

    // First run: cold store, simulates and persists.
    let writer = JobStore::at(dir.clone(), false);
    let first = run_workload_cached(&writer, &w, &cfg, &["persistence", "HIP"]);
    let key = job_key(
        &["persistence", "HIP"],
        w.fingerprint(),
        cfg_fingerprint(&cfg),
    );
    let path = writer.path_for(&key).unwrap();
    assert!(path.exists(), "no cache entry at {}", path.display());

    // Resume: the cached report satisfies the job byte-identically.
    let resumer = JobStore::at(dir.clone(), true);
    let cached = resumer.load(&key).expect("resume must hit the cache");
    assert_eq!(cached, first.report);
    let resumed = run_workload_cached(&resumer, &w, &cfg, &["persistence", "HIP"]);
    assert_eq!(resumed.report, first.report);

    // Without resume, the entry is ignored (but stays on disk).
    assert!(writer.load(&key).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn entries_under_the_v4_name_are_never_read_and_the_job_reruns() {
    let dir = scratch("stale");
    let cfg = MachineConfig::paper(1, 1, 4);
    let w = build_named("TMS", Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
    let store = JobStore::at(dir.clone(), true);
    let key = job_key(&["stale"], w.fingerprint(), cfg_fingerprint(&cfg));
    let path = store.path_for(&key).unwrap();
    assert!(path.to_string_lossy().ends_with(".v5.bin"), "{path:?}");

    // A leftover under the name the v4 text codec used for this key. It
    // holds a well-formed current entry for a forged one-cycle report,
    // so a build that opened the old name would serve that report.
    let forged = RunReport {
        cycles: 1,
        ..RunReport::default()
    };
    let stale = dir.join(format!("{key}.v4.txt"));
    let leftover = glsc_wire::frame(&encode_report(&forged));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(&stale, &leftover).unwrap();

    assert!(store.load(&key).is_none(), "a v4 entry satisfied the job");
    let rerun = run_workload_cached(&store, &w, &cfg, &["stale"]);
    assert_eq!(rerun.report, run_workload(&w, &cfg).unwrap().report);
    assert!(rerun.report.cycles > 1);
    // The rerun lands under the v5 name; the stale file is left alone.
    assert_eq!(store.load(&key).as_ref(), Some(&rerun.report));
    assert_eq!(std::fs::read(&stale).unwrap(), leftover);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn job_keys_separate_configs_and_workloads() {
    let cfg_a = MachineConfig::paper(4, 4, 4);
    let mut cfg_b = cfg_a.clone();
    cfg_b.mem.prefetch = !cfg_b.mem.prefetch;
    let w = build_named("HIP", Dataset::Tiny, Variant::Glsc, &cfg_a).expect("known kernel");
    let w2 = build_named("HIP", Dataset::Tiny, Variant::Base, &cfg_a).expect("known kernel");

    let base = job_key(&["x"], w.fingerprint(), cfg_fingerprint(&cfg_a));
    assert_ne!(
        base,
        job_key(&["x"], w.fingerprint(), cfg_fingerprint(&cfg_b)),
        "config change must change the key"
    );
    assert_ne!(
        base,
        job_key(&["x"], w2.fingerprint(), cfg_fingerprint(&cfg_a)),
        "workload change must change the key"
    );
    // Keys are filesystem-safe.
    let weird = job_key(&["a/b c:d", "e*f"], 1, 2);
    assert!(
        weird
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "._-".contains(c)),
        "unsafe key {weird:?}"
    );
}

#[test]
fn disabled_store_neither_reads_nor_writes() {
    let store = JobStore::disabled();
    assert!(store.dir().is_none());
    assert!(store.path_for("k").is_none());
    assert!(store.load("k").is_none());
    let cfg = MachineConfig::paper(1, 1, 4);
    let w = build_named("HIP", Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
    // save() must be a no-op rather than an error.
    let out = run_workload_cached(&store, &w, &cfg, &["disabled"]);
    assert!(out.report.cycles > 0);
}
