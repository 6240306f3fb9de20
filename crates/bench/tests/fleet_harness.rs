//! Harness-level semantics of [`run_jobs_fleet`], the one way a cached
//! figure runs: job-order results, kernel-job keys that match the older
//! five-part scheme, resume hits that bypass simulation entirely, and
//! per-job panic containment with a single attempt — the same
//! guarantees [`run_jobs`] gives the uncached targets.

use glsc_bench::store::{cfg_fingerprint, job_key};
use glsc_bench::{
    collect_errors, datasets, fleet_kernel_job, fleet_micro_job, run_jobs, run_jobs_fleet,
    FleetJobSpec, JobStore,
};
use glsc_kernels::micro::{MicroParams, Scenario};
use glsc_kernels::{build_named, run_workload, Dataset, Variant, Workload};
use glsc_sim::MachineConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

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
fn fleet_results_are_ordered_and_cached_per_key() {
    let dir = scratch("per-key");
    let store = JobStore::at(dir, false);

    // A mixed sweep with an exact duplicate under a different cache key
    // (as dataset-sharing sweeps produce): the duplicate must persist and
    // report under both keys.
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
            job_key(&parts, j.workload.fingerprint(), cfg_fingerprint(&j.cfg))
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

/// The kernel and micro jobs of the store round trip below, built fresh
/// (a workload's validator cannot be cloned).
fn kernel_and_micro_jobs() -> Vec<FleetJobSpec> {
    let variants = [Variant::Base, Variant::Glsc];
    let mut jobs = Vec::new();
    for kernel in ["HIP", "FS"] {
        for variant in variants {
            for shape in [(1, 2), (2, 1)] {
                jobs.push(fleet_kernel_job(kernel, Dataset::Tiny, variant, shape, 4));
            }
        }
    }
    // Fig. 7's parameters: the standard ones of the first dataset.
    let params = MicroParams::for_dataset(datasets()[0]);
    for scenario in Scenario::ALL {
        for variant in variants {
            jobs.push(fleet_micro_job(
                scenario,
                params.clone(),
                variant,
                (1, 2),
                4,
            ));
        }
    }
    jobs
}

#[test]
fn fleet_serves_every_job_from_a_store_an_earlier_pass_wrote() {
    let dir = scratch("two-pass");

    // The first pass fills the store.
    let first = run_jobs_fleet(
        &JobStore::at(dir.clone(), false),
        kernel_and_micro_jobs(),
        2,
    );
    let want: Vec<_> = first
        .iter()
        .enumerate()
        .map(|(i, r)| {
            r.as_ref()
                .unwrap_or_else(|e| panic!("job {i}: {e}"))
                .report
                .clone()
        })
        .collect();

    // The second pass gets the same jobs with validators that fail any
    // job that simulates: every one must come from the store.
    let mut jobs = kernel_and_micro_jobs();
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
fn kernel_jobs_key_by_their_wire_id_and_the_five_part_store_key() {
    let job = fleet_kernel_job("HIP", Dataset::Tiny, Variant::Glsc, (1, 2), 4);
    assert_eq!(job.key_parts, ["HIP-T-GLSC-1x2-w4"]);

    // The key the five-part scheme (kernel, dataset, variant, shape,
    // width) built for the same job on the paper machine: a store
    // written under it still resumes.
    let cfg = MachineConfig::paper(1, 2, 4);
    let w = build_named("HIP", Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
    let five_part = job_key(
        &["HIP", "T", "GLSC", "1x2", "w4"],
        w.fingerprint(),
        cfg_fingerprint(&cfg),
    );
    let parts: Vec<&str> = job.key_parts.iter().map(String::as_str).collect();
    assert_eq!(
        job_key(
            &parts,
            job.workload.fingerprint(),
            cfg_fingerprint(&job.cfg)
        ),
        five_part
    );
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

#[test]
fn a_panicking_job_runs_exactly_once_through_either_entry_point() {
    // Jobs are deterministic, so a retry could only repeat the panic:
    // each entry point must run a failing job once.
    let calls = Arc::new(AtomicU32::new(0));
    let counted = Arc::clone(&calls);
    let jobs = vec![move || -> u64 {
        counted.fetch_add(1, Ordering::SeqCst);
        panic!("deterministic failure");
    }];
    let got = run_jobs(jobs, 1);
    let e = got[0].as_ref().unwrap_err();
    assert!(e.message().contains("deterministic failure"), "{e}");
    assert_eq!(calls.load(Ordering::SeqCst), 1, "run_jobs retried the job");

    // Through the batch entry point: a validator that counts its calls
    // and always rejects, so the job panics after every simulation.
    let calls = Arc::new(AtomicU32::new(0));
    let counted = Arc::clone(&calls);
    let mut job = fleet_kernel_job("HIP", Dataset::Tiny, Variant::Glsc, (1, 2), 4);
    job.workload.validate = Box::new(move |_| {
        counted.fetch_add(1, Ordering::SeqCst);
        Err("rejected on every run".into())
    });
    let got = run_jobs_fleet(&JobStore::at(scratch("once"), false), vec![job], 1);
    let e = got[0].as_ref().unwrap_err();
    assert!(e.message().contains("rejected on every run"), "{e}");
    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "run_jobs_fleet simulated the job more than once"
    );
}
