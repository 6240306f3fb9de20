//! Harness-level semantics of [`run_jobs_fleet`]: job-order results,
//! cross-path cache compatibility, in-sweep deduplication, resume hits
//! that bypass simulation entirely, and per-job panic containment — the
//! same guarantees [`run_jobs`] gives the classic path.

use glsc_bench::{
    collect_errors, fleet_kernel_job, fleet_micro_job, run_cached, run_jobs_fleet,
    run_micro_cached, FleetJobSpec, JobStore,
};
use glsc_kernels::micro::{MicroParams, Scenario};
use glsc_kernels::{build_named, run_workload, Dataset, Variant, Workload};
use glsc_sim::MachineConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// Fresh per-test scratch directory (no tempfile dependency).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "glsc-fleet-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fleet_results_are_ordered_deduplicated_and_cached_per_key() {
    let dir = scratch("dedupe");
    let store = JobStore::at(dir, false);

    // A mixed sweep with an exact duplicate under a different cache key
    // (as dataset-sharing sweeps produce): the duplicate must simulate
    // once but persist and report under both keys.
    let mut jobs = vec![
        fleet_kernel_job("HIP", Dataset::Tiny, Variant::Glsc, (1, 2), 4),
        fleet_kernel_job("GPS", Dataset::Tiny, Variant::Base, (2, 1), 4),
        fleet_kernel_job("HIP", Dataset::Tiny, Variant::Glsc, (2, 2), 1),
    ];
    let mut dup = fleet_kernel_job("HIP", Dataset::Tiny, Variant::Glsc, (1, 2), 4);
    dup.key_parts = vec!["alias".into(), "HIP".into()];
    jobs.push(dup);

    // Solo ground truth, computed before the fleet touches anything.
    let want: Vec<_> = jobs
        .iter()
        .map(|j| run_workload(&j.workload, &j.cfg).unwrap().report)
        .collect();

    let keys: Vec<_> = jobs
        .iter()
        .map(|j| {
            let parts: Vec<&str> = j.key_parts.iter().map(String::as_str).collect();
            glsc_bench::store::job_key(
                &parts,
                j.workload.fingerprint(),
                glsc_bench::store::cfg_fingerprint(&j.cfg),
            )
        })
        .collect();

    let got = run_jobs_fleet(&store, jobs, 2);
    assert_eq!(got.len(), 4);
    for (i, r) in got.iter().enumerate() {
        let out = r.as_ref().unwrap_or_else(|e| panic!("job {i}: {e}"));
        assert_eq!(out.report, want[i], "job {i}: fleet diverged from solo");
    }
    // Both the duplicate's key and its primary's key are persisted.
    for key in &keys {
        let path = store.path_for(key).unwrap();
        assert!(path.exists(), "missing cache entry for {key}");
    }
    assert!(collect_errors(&got).is_empty());
}

#[test]
fn fleet_resume_hits_bypass_simulation() {
    let dir = scratch("resume");

    // Populate the cache.
    let writer = JobStore::at(dir.clone(), false);
    let first = run_jobs_fleet(
        &writer,
        vec![fleet_kernel_job(
            "FS",
            Dataset::Tiny,
            Variant::Glsc,
            (1, 2),
            4,
        )],
        1,
    );
    let first = first[0].as_ref().unwrap().report.clone();

    // Same job, but with a booby-trapped validator. The fingerprints
    // (program + image) are identical, so a resume hit must serve the
    // cached report without ever simulating or validating; if the fleet
    // re-ran it, the validator would fail the job.
    let cfg = MachineConfig::paper(1, 2, 4);
    let w = build_named("FS", Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
    let trapped = Workload {
        name: w.name.clone(),
        program: w.program.clone(),
        image: w.image.clone(),
        validate: Box::new(|_| Err("resume hit must not simulate".into())),
    };
    let spec = FleetJobSpec {
        key_parts: vec![
            "FS".into(),
            "T".into(),
            Variant::Glsc.label().into(),
            "1x2".into(),
            "w4".into(),
        ],
        workload: trapped,
        cfg,
    };
    let resumer = JobStore::at(dir, true);
    let got = run_jobs_fleet(&resumer, vec![spec], 4);
    let out = got[0].as_ref().expect("resume hit must succeed");
    assert_eq!(out.report, first, "cached report must come back unchanged");
}

#[test]
fn fleet_serves_every_job_from_a_store_the_solo_path_wrote() {
    let dir = scratch("cross-path");
    let variants = [Variant::Base, Variant::Glsc];
    let shapes = [(1, 2), (2, 1)];
    // `run_micro_cached` runs at the standard parameters of the
    // `GLSC_DATASETS` dataset.
    let micro_ds = if std::env::var("GLSC_DATASETS").is_ok_and(|v| v == "tiny") {
        Dataset::Tiny
    } else {
        Dataset::A
    };

    // The solo path fills the store.
    let writer = JobStore::at(dir.clone(), false);
    let mut want = Vec::new();
    let mut jobs = Vec::new();
    for kernel in ["HIP", "FS"] {
        for variant in variants {
            for shape in shapes {
                want.push(run_cached(&writer, kernel, Dataset::Tiny, variant, shape, 4).report);
                jobs.push(fleet_kernel_job(kernel, Dataset::Tiny, variant, shape, 4));
            }
        }
    }
    for scenario in Scenario::ALL {
        for variant in variants {
            want.push(run_micro_cached(&writer, scenario, variant, (1, 2), 4).report);
            let params = MicroParams::for_dataset(micro_ds);
            jobs.push(fleet_micro_job(scenario, params, variant, (1, 2), 4));
        }
    }

    // The fleet gets the same jobs with validators that fail any job that
    // simulates: every one must come from the store.
    for job in &mut jobs {
        job.workload.validate = Box::new(|_| Err("a stored job was simulated again".into()));
    }
    let got = run_jobs_fleet(&JobStore::at(dir, true), jobs, 2);
    assert_eq!(got.len(), want.len());
    for (i, (r, want)) in got.iter().zip(&want).enumerate() {
        let out = r.as_ref().unwrap_or_else(|e| panic!("job {i}: {e}"));
        assert_eq!(
            &out.report, want,
            "job {i}: store served a different report"
        );
    }
}

#[test]
fn fleet_contains_a_poisoned_job_and_finishes_the_rest_solo() {
    let dir = scratch("poison");
    let store = JobStore::at(dir, false);

    // The poison pattern only matches this test's keys, so concurrent
    // tests in this binary are unaffected by the process-global env var.
    std::env::set_var("GLSC_BENCH_INJECT_PANIC", "cursedfleet");
    let mut jobs: Vec<FleetJobSpec> = ["HIP", "GBC", "SMC", "TMS"]
        .iter()
        .map(|k| fleet_kernel_job(k, Dataset::Tiny, Variant::Glsc, (1, 2), 4))
        .collect();
    jobs[2].key_parts.insert(0, "cursedfleet".into());

    let want: Vec<_> = jobs
        .iter()
        .map(|j| run_workload(&j.workload, &j.cfg).unwrap().report)
        .collect();

    // One worker: the poisoned job runs between healthy jobs on the same
    // worker, which must go on to finish them.
    let got = run_jobs_fleet(&store, jobs, 1);
    std::env::remove_var("GLSC_BENCH_INJECT_PANIC");

    assert_eq!(got.len(), 4);
    for (i, r) in got.iter().enumerate() {
        if i == 2 {
            let e = r.as_ref().unwrap_err();
            assert_eq!(e.index(), 2);
            assert!(
                e.message().contains("GLSC_BENCH_INJECT_PANIC"),
                "unexpected failure: {}",
                e.message()
            );
        } else {
            let out = r.as_ref().unwrap_or_else(|e| panic!("job {i}: {e}"));
            assert_eq!(out.report, want[i], "job {i}: diverged from solo");
        }
    }
    let errs = collect_errors(&got);
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].index(), 2);
}
