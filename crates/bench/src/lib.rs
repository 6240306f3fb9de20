//! # glsc-bench — experiment harness
//!
//! Regenerates every figure and table of the paper's evaluation (§5).
//! Each `cargo bench --bench <name>` target prints the corresponding
//! rows/series:
//!
//! | Target | Reproduces |
//! |--------|------------|
//! | `fig5` | Fig. 5(a) sync-time fraction and 5(b) SIMD efficiency |
//! | `fig6` | Fig. 6 Base-vs-GLSC speedups at 4-wide over four configs |
//! | `fig7` | Fig. 7 microbenchmark scenarios A–D |
//! | `fig8` | Fig. 8 Base/GLSC ratios at widths 1/4/16 |
//! | `table4` | Table 4 instruction / memory-stall / L1 / failure analysis |
//! | `ablation` | Design-choice ablations from DESIGN.md |
//! | `noc_contention` | Interconnect study: ideal vs crossbar vs ring across thread counts |
//! | `contention_policies` | Arbitration study: free vs NACK-holdoff vs aged priority on a hot set |
//! | `pattern_sweep` | Access-pattern taxonomy × {Ideal, Ring} NoC × {Free, Aged} arbitration |
//! | `chaos` | Every kernel under seeded fault plans, revalidated (uncached) |
//! | `components` | Microbenches of the simulator substrate |
//! | `simperf` | Simulator throughput: fast-forward vs naive, parallel vs serial |
//!
//! Set `GLSC_DATASETS=tiny` to smoke-run everything on tiny inputs.
//!
//! Every cached figure has one front door: it builds its jobs as a list
//! of [`FleetJobSpec`]s ([`fleet_kernel_job`] for a kernel run,
//! [`fleet_micro_job`] for a §5.2 microbenchmark, a literal for a custom
//! machine) and runs them through [`run_jobs_fleet`], which consults the
//! durable job [`store`], simulates each miss on a fresh machine and
//! contains a failing job to its own [`JobError`] row. The uncached
//! targets (`chaos`, `simperf`) run closures through [`run_jobs`] over
//! [`run`] and [`run_chaos`]. Both fan jobs across host threads; set
//! `GLSC_BENCH_THREADS` to control the worker count
//! (`GLSC_BENCH_THREADS=1` forces the serial path). Results are always
//! collected in job order, so the printed tables are identical at any
//! thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod jobspec;
mod output;
pub mod store;

pub use output::FigureOutput;
pub use store::JobStore;

use glsc_kernels::{
    micro, run_workload, run_workload_chaos, Dataset, KernelOutcome, Variant, Workload,
};
use glsc_sim::{ChaosConfig, ChaosStats, MachineConfig};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The `m x n` machine shapes of Fig. 6.
pub const CONFIGS: [(usize, usize); 4] = [(1, 1), (1, 4), (4, 1), (4, 4)];

/// Whether `GLSC_DATASETS=tiny` asks for the tiny smoke inputs; the
/// harness's one reader of that variable.
pub(crate) fn tiny_datasets() -> bool {
    std::env::var("GLSC_DATASETS").is_ok_and(|v| v == "tiny")
}

/// Returns the dataset pair to evaluate, honoring `GLSC_DATASETS=tiny`.
pub fn datasets() -> Vec<Dataset> {
    if tiny_datasets() {
        vec![Dataset::Tiny]
    } else {
        vec![Dataset::A, Dataset::B]
    }
}

/// Short label for a dataset.
pub fn ds_label(ds: Dataset) -> &'static str {
    match ds {
        Dataset::A => "A",
        Dataset::B => "B",
        Dataset::Tiny => "T",
    }
}

/// Runs one benchmark instance to completion, uncached (panics if the
/// simulated program fails validation — the harness must never report
/// numbers from an incorrect run). The machine and workload come from
/// [`WireJobSpec::lower`](jobspec::WireJobSpec::lower), the lowering
/// every kernel job shares.
pub fn run(
    kernel: &str,
    ds: Dataset,
    variant: Variant,
    shape: (usize, usize),
    width: usize,
) -> KernelOutcome {
    let spec = jobspec::WireJobSpec::kernel(kernel, ds, variant, shape, width);
    let (cfg, w) = spec.lower().unwrap_or_else(|e| panic!("{e}"));
    run_workload(&w, &cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs one benchmark instance with a seeded fault plan installed
/// (DESIGN.md §9). Validation still runs — the harness asserts the
/// atomicity oracle, not just survival — and the plan's injection
/// counters come back alongside the outcome. The spec names the plan's
/// seed, so its lowering arms the chaos watchdog: a forward-progress
/// bug surfaces as a structured error instead of a hang.
pub fn run_chaos(
    kernel: &str,
    ds: Dataset,
    variant: Variant,
    shape: (usize, usize),
    width: usize,
    chaos: ChaosConfig,
) -> (KernelOutcome, ChaosStats) {
    let spec = jobspec::WireJobSpec {
        chaos: Some(chaos.seed),
        ..jobspec::WireJobSpec::kernel(kernel, ds, variant, shape, width)
    };
    let (cfg, w) = spec.lower().unwrap_or_else(|e| panic!("{e}"));
    run_workload_chaos(&w, &cfg, chaos).unwrap_or_else(|e| panic!("{e}"))
}

/// One job of a [`run_jobs_fleet`] batch, in owned form: what to
/// simulate, on which machine, and under which cache key. Build kernel
/// jobs with [`fleet_kernel_job`] and microbenchmark jobs with
/// [`fleet_micro_job`]; figures with custom machines (NoC, arbitration,
/// ablations, pattern sweeps) write the literal.
pub struct FleetJobSpec {
    /// Human-readable job-key parts, joined with `-` into the job's
    /// store key (ahead of the workload and config fingerprints) and its
    /// failure-log label.
    pub key_parts: Vec<String>,
    /// The workload to simulate and validate.
    pub workload: Workload,
    /// Machine configuration to run under.
    pub cfg: MachineConfig,
}

/// Builds the job for one kernel run through the lowering `glsc-serve`
/// uses ([`WireJobSpec::lower`](jobspec::WireJobSpec::lower)), keyed by
/// the spec's one-part id (`HIP-T-GLSC-1x2-w4`). The id is the kernel,
/// dataset, variant, shape and width joined with `-`, so its store key
/// equals the key those five parts give and stores written under
/// either resume.
///
/// # Panics
///
/// Panics on an unknown kernel or a shape outside the simulator's
/// bounds.
pub fn fleet_kernel_job(
    kernel: &str,
    ds: Dataset,
    variant: Variant,
    shape: (usize, usize),
    width: usize,
) -> FleetJobSpec {
    let spec = jobspec::WireJobSpec::kernel(kernel, ds, variant, shape, width);
    let (cfg, workload) = spec.lower().unwrap_or_else(|e| panic!("{e}"));
    FleetJobSpec {
        key_parts: vec![spec.id()],
        workload,
        cfg,
    }
}

/// Builds the job for a §5.2 microbenchmark scenario with explicit
/// parameters (the figures use
/// [`MicroParams::for_dataset`](micro::MicroParams::for_dataset)).
pub fn fleet_micro_job(
    scenario: micro::Scenario,
    params: micro::MicroParams,
    variant: Variant,
    (cores, tpc): (usize, usize),
    width: usize,
) -> FleetJobSpec {
    let cfg = MachineConfig::paper(cores, tpc, width);
    let (iters, seed) = (params.iters, params.seed);
    let workload = micro::Micro::with_params(scenario, params).build(variant, &cfg);
    FleetJobSpec {
        key_parts: vec![
            "micro".to_string(),
            scenario.label().to_string(),
            format!("i{iters}s{seed}"),
            variant.label().to_string(),
            format!("{cores}x{tpc}"),
            format!("w{width}"),
        ],
        workload,
        cfg,
    }
}

/// The harness's front door: runs a batch of cached jobs across
/// `threads` host workers and returns the results **in job order**, so a
/// figure printed from them is byte-identical at any worker count.
///
/// Each job is keyed by its key parts plus its workload and config
/// fingerprints, looked up in the store once (`GLSC_BENCH_RESUME=1`),
/// simulated on a fresh machine and validated on a miss, persisted, and
/// attempted once; a failure (a simulation error, a rejected
/// validation, an injected drill) degrades to that job's own
/// [`JobError`] row and is logged under its joined key parts. Jobs are
/// not deduplicated: two jobs with the same workload and configuration
/// each run under their own key.
pub fn run_jobs_fleet(
    store: &JobStore,
    jobs: Vec<FleetJobSpec>,
    threads: usize,
) -> Vec<Result<KernelOutcome, JobError>> {
    let runs = jobs
        .iter()
        .map(|spec| (spec.key_parts.join("-"), move || run_spec(store, spec)))
        .collect();
    run_jobs_labeled(runs, threads)
}

/// One [`run_jobs_fleet`] job: builds its key, tries the store,
/// simulates on a miss and persists the result.
///
/// # Panics
///
/// Panics if the simulation fails or the workload's validator rejects
/// the result (the harness must never report numbers from an incorrect
/// run); the batch turns the panic into the job's [`JobError`].
fn run_spec(store: &JobStore, spec: &FleetJobSpec) -> KernelOutcome {
    let parts: Vec<&str> = spec.key_parts.iter().map(String::as_str).collect();
    let key = store::job_key(
        &parts,
        spec.workload.fingerprint(),
        store::cfg_fingerprint(&spec.cfg),
    );
    maybe_inject_panic(&key);
    if let Some(report) = store.load(&key) {
        return KernelOutcome { report };
    }
    let out = run_workload(&spec.workload, &spec.cfg).unwrap_or_else(|e| panic!("{e}"));
    store.save(&key, &out.report);
    out
}

/// Fault-drill hook: when `GLSC_BENCH_INJECT_PANIC=<substring>` is set,
/// any cached job whose key contains the substring panics instead of
/// running. CI and tests use this to prove a poisoned job degrades to a
/// per-job error row and a nonzero exit rather than aborting the figure.
fn maybe_inject_panic(key: &str) {
    if let Ok(pat) = std::env::var("GLSC_BENCH_INJECT_PANIC") {
        if !pat.is_empty() && key.contains(&pat) {
            panic!("GLSC_BENCH_INJECT_PANIC: injected failure for job {key}");
        }
    }
}

/// Number of host threads the figure benches fan simulations across.
///
/// Honors `GLSC_BENCH_THREADS` (any positive integer; `1` forces the
/// serial path) and otherwise defaults to the host's available
/// parallelism.
pub fn bench_threads() -> usize {
    std::env::var("GLSC_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One harness job's terminal failure: it panicked (a simulation error,
/// a failed validation, or an injected drill). The harness reports it
/// (figure row marked with the typed [`cell`](JobError::cell), error
/// epilogue, nonzero exit) instead of aborting the whole figure. Every
/// job gets one attempt: jobs are deterministic simulations, so a second
/// attempt could only fail the same way.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobError {
    index: usize,
    message: String,
}

impl JobError {
    /// The job's index in the submitted batch (== its table position).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Human-readable cause: the panic message.
    pub fn message(&self) -> String {
        self.message.clone()
    }

    /// Fixed-width degradation-mode label for figure cells, so operators
    /// can tell a failed job from a cell normalized by one (`ERR`) at a
    /// glance: `PANIC`.
    pub fn cell(&self) -> &'static str {
        "PANIC"
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {} failed: {}", self.index, self.message)
    }
}

impl std::error::Error for JobError {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job once under `catch_unwind`. A panic is logged to stderr
/// with the job's index and, when the caller supplied one (a
/// [`run_jobs_fleet`] job's joined key parts), its label, and comes back as
/// a [`JobError`]. Jobs are deterministic simulations, so a
/// second attempt could only repeat the same panic.
fn run_one<T, F: Fn() -> T>(index: usize, label: &str, job: &F) -> Result<T, JobError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).map_err(|payload| {
        let message = panic_message(payload.as_ref());
        let tag = if label.is_empty() {
            String::new()
        } else {
            format!(" ({label})")
        };
        eprintln!("[jobs] job {index}{tag} panicked: {message}");
        JobError { index, message }
    })
}

/// Runs independent jobs across `threads` host threads and returns their
/// results **in job order**, regardless of which worker ran which job or
/// in what order they finished — callers print from the returned vector,
/// so harness output is byte-identical to the serial path.
///
/// Each job runs once under `catch_unwind`: a poisoned job degrades to a
/// per-slot [`JobError`] while every other job completes normally.
/// Workers hold no lock while a job runs, and result-slot locking
/// tolerates poisoning, so a panicking job can neither wedge a slot nor
/// cascade-abort the harness.
///
/// Uses scoped threads with an atomic work index (no new dependencies);
/// with `threads <= 1` or a single job the jobs run inline on the calling
/// thread. This is the uncached runner (the `chaos` and `simperf`
/// targets); cached figures go through [`run_jobs_fleet`], which runs
/// on it.
pub fn run_jobs<T, F>(jobs: Vec<F>, threads: usize) -> Vec<Result<T, JobError>>
where
    T: Send,
    F: Fn() -> T + Send + Sync,
{
    run_jobs_labeled(
        jobs.into_iter().map(|j| (String::new(), j)).collect(),
        threads,
    )
}

/// [`run_jobs`] with a label per job (empty for none) that failure
/// logging includes, so a failed job on a long figure run can be
/// identified from stderr alone.
fn run_jobs_labeled<T, F>(jobs: Vec<(String, F)>, threads: usize) -> Vec<Result<T, JobError>>
where
    T: Send,
    F: Fn() -> T + Send + Sync,
{
    let n = jobs.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return jobs
            .iter()
            .enumerate()
            .map(|(i, (label, job))| run_one(i, label, job))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Result<T, JobError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // The job runs before the slot lock is taken: a panicking
                // job (already contained by run_one) can never poison a
                // result slot, and lock acquisition stays poison-tolerant
                // anyway for defense in depth.
                let (label, job) = &jobs[i];
                let result = run_one(i, label, job);
                *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });
    results
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| {
                    Err(JobError {
                        index: i,
                        message: "worker exited without storing a result".into(),
                    })
                })
        })
        .collect()
}

/// Clones the failures out of a [`run_jobs`] result batch.
pub fn collect_errors<T>(results: &[Result<T, JobError>]) -> Vec<JobError> {
    results
        .iter()
        .filter_map(|r| r.as_ref().err().cloned())
        .collect()
}

/// Ends a figure run: appends the error epilogue (if any job failed),
/// atomically writes the captured output to its `results/` file, and
/// returns the process exit code (`0` clean, `1` when any job failed).
/// Bench mains call `std::process::exit(finish_figure(out, &errors))`.
pub fn finish_figure(mut out: FigureOutput, errors: &[JobError]) -> i32 {
    if !errors.is_empty() {
        out.blank();
        out.line(format!(
            "!! {} job(s) failed; above, a failed job's cells print as PANIC \
             and cells normalized by one as ERR:",
            errors.len()
        ));
        for e in errors {
            out.line(format!("!!   {e}"));
        }
    }
    out.finish();
    if errors.is_empty() {
        0
    } else {
        1
    }
}

/// Formats a ratio as the paper does (e.g. `1.54x`).
pub fn ratio(base: u64, glsc: u64) -> f64 {
    base as f64 / glsc as f64
}

/// Percentage formatting helper.
pub fn pct(x: f64) -> String {
    format!("{:6.2} %", 100.0 * x)
}

/// Geometric mean of a slice (used for "on average X% faster" summaries).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn ratio_and_pct() {
        assert_eq!(ratio(300, 200), 1.5);
        assert_eq!(pct(0.5), " 50.00 %");
    }

    #[test]
    fn run_jobs_preserves_job_order() {
        let jobs: Vec<_> = (0..23u64)
            .map(|i| {
                move || {
                    // Stagger finish times so out-of-order completion is likely.
                    std::thread::sleep(std::time::Duration::from_micros(((23 - i) % 5) * 50));
                    i * i
                }
            })
            .collect();
        let got = run_jobs(jobs, 8);
        let want: Vec<Result<u64, JobError>> = (0..23).map(|i| Ok(i * i)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn run_jobs_serial_and_empty() {
        let got = run_jobs((0..4).map(|i| move || i).collect::<Vec<_>>(), 1);
        assert_eq!(got, vec![Ok(0), Ok(1), Ok(2), Ok(3)]);
        let empty: Vec<fn() -> i32> = Vec::new();
        assert!(run_jobs(empty, 8).is_empty());
    }

    #[test]
    fn run_jobs_clamps_worker_count() {
        // More workers requested than jobs exist: the pool is clamped to
        // the job count, so no worker spawns only to exit idle, and
        // results stay in job order.
        let got = run_jobs((0..3).map(|i| move || i * 2).collect::<Vec<_>>(), 1_000);
        assert_eq!(got, vec![Ok(0), Ok(2), Ok(4)]);
        // A zero-thread request is forced up to one (the serial path).
        let got = run_jobs((0..3).map(|i| move || i + 7).collect::<Vec<_>>(), 0);
        assert_eq!(got, vec![Ok(7), Ok(8), Ok(9)]);
        // Empty batches are fine at any thread request, zero included.
        let empty: Vec<fn() -> i32> = Vec::new();
        assert!(run_jobs(empty, 0).is_empty());
        let empty: Vec<fn() -> i32> = Vec::new();
        assert!(run_jobs(empty, usize::MAX).is_empty());
    }

    #[test]
    fn run_jobs_isolates_panicking_jobs() {
        // One poisoned job in the middle of the batch: its slot reports a
        // JobError carrying the panic message, every other job completes,
        // and order is preserved. Exercised at both thread counts so the
        // serial path's isolation is covered too.
        for threads in [1, 4] {
            let jobs: Vec<Box<dyn Fn() -> u64 + Send + Sync>> = (0..6u64)
                .map(|i| {
                    Box::new(move || {
                        if i == 3 {
                            panic!("job {i} is cursed");
                        }
                        i * 10
                    }) as Box<dyn Fn() -> u64 + Send + Sync>
                })
                .collect();
            let got = run_jobs(jobs, threads);
            assert_eq!(got.len(), 6);
            for (i, r) in got.iter().enumerate() {
                if i == 3 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.index(), 3);
                    assert!(e.message().contains("cursed"), "message: {}", e.message());
                    assert!(e.to_string().contains("job 3 failed"));
                    assert_eq!(e.cell(), "PANIC");
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(i as u64 * 10));
                }
            }
            let errs = collect_errors(&got);
            assert_eq!(errs.len(), 1);
            assert_eq!(errs[0].index(), 3);
        }
    }

    #[test]
    fn tiny_smoke_run_via_harness() {
        let out = run("HIP", Dataset::Tiny, Variant::Glsc, (1, 2), 4);
        assert!(out.report.cycles > 0);
        let params = micro::MicroParams::for_dataset(Dataset::Tiny);
        let spec = fleet_micro_job(micro::Scenario::B, params, Variant::Base, (1, 1), 4);
        let outm = run_jobs_fleet(&JobStore::disabled(), vec![spec], 1);
        assert!(outm[0].as_ref().unwrap().report.cycles > 0);
    }

    #[test]
    fn degradation_cells_are_pinned() {
        // Operators grep this exact label out of figure tables and the
        // CI panic drill greps PANIC; changing it is a breaking change to
        // the output format. (glsc-serve pins its own `QUAR` row.)
        let panicked = JobError {
            index: 0,
            message: "boom".into(),
        };
        assert_eq!(panicked.cell(), "PANIC");
        assert_eq!(panicked.to_string(), "job 0 failed: boom");
    }
}
