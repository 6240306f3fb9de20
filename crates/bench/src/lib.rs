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
//! | `components` | Microbenches of the simulator substrate |
//! | `simperf` | Simulator throughput: fast-forward vs naive, parallel vs serial |
//! | `noc_contention` | Interconnect study: ideal vs crossbar vs ring across thread counts |
//!
//! Set `GLSC_DATASETS=tiny` to smoke-run everything on tiny inputs.
//! Independent simulations are fanned across host threads via
//! [`run_jobs`]; set `GLSC_BENCH_THREADS` to control the worker count
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
    build_named, micro, run_workload, run_workload_chaos, Dataset, KernelOutcome, Variant, Workload,
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

/// Builds the paper machine configuration `m x n` at `width`.
pub fn config(cores: usize, tpc: usize, width: usize) -> MachineConfig {
    MachineConfig::paper(cores, tpc, width)
}

/// Runs one benchmark instance to completion (panics if the simulated
/// program fails validation — the harness must never report numbers from
/// an incorrect run).
pub fn run(
    kernel: &str,
    ds: Dataset,
    variant: Variant,
    (cores, tpc): (usize, usize),
    width: usize,
) -> KernelOutcome {
    let cfg = config(cores, tpc, width);
    let w = build_named(kernel, ds, variant, &cfg).unwrap_or_else(|e| panic!("{e}"));
    run_workload(&w, &cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs one benchmark instance with a seeded fault plan installed
/// (DESIGN.md §9). Validation still runs — the harness asserts the
/// atomicity oracle, not just survival — and the plan's injection
/// counters come back alongside the outcome. The machine gets a watchdog
/// and a generous cycle budget so a forward-progress bug surfaces as a
/// structured error instead of a hang.
pub fn run_chaos(
    kernel: &str,
    ds: Dataset,
    variant: Variant,
    (cores, tpc): (usize, usize),
    width: usize,
    chaos: ChaosConfig,
) -> (KernelOutcome, ChaosStats) {
    let cfg = config(cores, tpc, width)
        .with_max_cycles(2_000_000_000)
        .with_watchdog_window(Some(5_000_000));
    let w = build_named(kernel, ds, variant, &cfg).unwrap_or_else(|e| panic!("{e}"));
    run_workload_chaos(&w, &cfg, chaos).unwrap_or_else(|e| panic!("{e}"))
}

/// As [`run`], but consulting the durable job [`store`] first: with
/// `GLSC_BENCH_RESUME=1` a previously completed identical job is
/// satisfied from its cached [`RunReport`](glsc_sim::RunReport) (the
/// skip is logged to stderr, never stdout — table output stays
/// byte-identical), and every freshly
/// simulated job is persisted for future resumption. Job identity covers
/// the named parameters plus content fingerprints of the workload and the
/// machine configuration, so stale cache hits after a code or dataset
/// change are structurally impossible.
pub fn run_cached(
    store: &JobStore,
    kernel: &str,
    ds: Dataset,
    variant: Variant,
    shape: (usize, usize),
    width: usize,
) -> KernelOutcome {
    run_spec_cached(store, &fleet_kernel_job(kernel, ds, variant, shape, width))
}

/// Runs one [`FleetJobSpec`] through [`run_workload_cached`] under its
/// own key parts: the solo path for a job [`run_jobs_fleet`] would key
/// identically.
pub fn run_spec_cached(store: &JobStore, spec: &FleetJobSpec) -> KernelOutcome {
    let parts: Vec<&str> = spec.key_parts.iter().map(String::as_str).collect();
    run_workload_cached(store, &spec.workload, &spec.cfg, &parts)
}

/// The cache-aware workload runner under [`run_cached`] and the bench
/// targets with custom configurations (ablations): builds the job key,
/// tries the store, simulates on a miss, persists the result.
///
/// # Panics
///
/// Panics if the simulation fails or the workload's validator rejects the
/// result (the harness must never report numbers from an incorrect run);
/// [`run_jobs`] converts such a panic into a per-job [`JobError`].
pub fn run_workload_cached(
    store: &JobStore,
    w: &Workload,
    cfg: &MachineConfig,
    key_parts: &[&str],
) -> KernelOutcome {
    let key = store::job_key(key_parts, w.fingerprint(), store::cfg_fingerprint(cfg));
    maybe_inject_panic(&key);
    if let Some(report) = store.load(&key) {
        return KernelOutcome { report };
    }
    let out = run_workload(w, cfg).unwrap_or_else(|e| panic!("{e}"));
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

/// Runs one §5.2 microbenchmark scenario through the durable job
/// [`store`] (see [`run_cached`]) at the standard parameters of the
/// `GLSC_DATASETS` dataset (tiny, else A), keyed as [`fleet_micro_job`]
/// keys the same scenario.
pub fn run_micro_cached(
    store: &JobStore,
    scenario: micro::Scenario,
    variant: Variant,
    shape: (usize, usize),
    width: usize,
) -> KernelOutcome {
    let ds = if tiny_datasets() {
        Dataset::Tiny
    } else {
        Dataset::A
    };
    let params = micro::MicroParams::for_dataset(ds);
    run_spec_cached(
        store,
        &fleet_micro_job(scenario, params, variant, shape, width),
    )
}

/// One entry in a sweep for [`run_jobs_fleet`]: everything
/// [`run_workload_cached`] needs for a single job, in owned form. Build
/// with [`fleet_kernel_job`] / [`fleet_micro_job`] to match the solo
/// paths' cache-key schemes, or construct directly for custom sweeps
/// (ablations).
pub struct FleetJobSpec {
    /// Human-readable job-key parts (same scheme as [`run_cached`]).
    pub key_parts: Vec<String>,
    /// The workload to simulate and validate.
    pub workload: Workload,
    /// Machine configuration to run under.
    pub cfg: MachineConfig,
}

/// Builds the job spec for one kernel run. [`run_cached`] runs it alone
/// and [`run_jobs_fleet`] as part of a sweep, under the same job key, so
/// both share one cache namespace and resume across each other.
pub fn fleet_kernel_job(
    kernel: &str,
    ds: Dataset,
    variant: Variant,
    (cores, tpc): (usize, usize),
    width: usize,
) -> FleetJobSpec {
    let cfg = config(cores, tpc, width);
    let workload = build_named(kernel, ds, variant, &cfg).unwrap_or_else(|e| panic!("{e}"));
    FleetJobSpec {
        key_parts: vec![
            kernel.to_string(),
            ds_label(ds).to_string(),
            variant.label().to_string(),
            format!("{cores}x{tpc}"),
            format!("w{width}"),
        ],
        workload,
        cfg,
    }
}

/// Builds the job spec for a §5.2 microbenchmark scenario with explicit
/// parameters. [`run_micro_cached`] runs it solo at the dataset's
/// standard parameters.
pub fn fleet_micro_job(
    scenario: micro::Scenario,
    params: micro::MicroParams,
    variant: Variant,
    (cores, tpc): (usize, usize),
    width: usize,
) -> FleetJobSpec {
    let cfg = config(cores, tpc, width);
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

/// Runs a sweep of cached jobs and returns the results **in job order**:
/// each job runs through [`run_spec_cached`] under [`run_jobs_labeled`]
/// across `threads` host workers, labelled by its joined key parts. So a
/// job is keyed exactly as the solo path keys it, looked up in the store
/// once (`GLSC_BENCH_RESUME=1`), simulated on a fresh machine on a miss,
/// and persisted; a poisoned job degrades to its own [`JobError`] row.
/// Jobs are not deduplicated: two jobs with the same workload and
/// configuration each run under their own key.
pub fn run_jobs_fleet(
    store: &JobStore,
    jobs: Vec<FleetJobSpec>,
    threads: usize,
) -> Vec<Result<KernelOutcome, JobError>> {
    let runs = jobs
        .iter()
        .map(|spec| {
            (spec.key_parts.join("-"), move || {
                run_spec_cached(store, spec)
            })
        })
        .collect();
    run_jobs_labeled(runs, threads)
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

/// One job's terminal failure. The harness reports it (figure row marked
/// with the typed [`cell`](JobError::cell), error epilogue, nonzero
/// exit) instead of aborting the whole figure. Every job, in the harness
/// and in `glsc-serve`, gets one attempt: jobs are deterministic
/// simulations, so a second attempt could only fail the same way.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// A harness job panicked (simulation error, validation failure, or
    /// an injected drill).
    Panicked {
        /// The job's index in the submitted batch (== its table position).
        index: usize,
        /// The panic message.
        message: String,
    },
    /// A `glsc-serve` job failed its run (panic, simulation error,
    /// rejected or panicking validation, or a tripped deadline) and was
    /// quarantined: it never runs again in that state dir. The reason
    /// goes to the service's stderr log, not here, so a row replayed from
    /// the journal renders exactly as the live one did.
    Quarantined {
        /// The job's index in the submitted batch.
        index: usize,
    },
}

impl JobError {
    /// The job's index in the submitted batch (== its table position).
    pub fn index(&self) -> usize {
        match self {
            JobError::Panicked { index, .. } | JobError::Quarantined { index } => *index,
        }
    }

    /// Human-readable cause: the panic message, or the quarantine.
    pub fn message(&self) -> String {
        match self {
            JobError::Panicked { message, .. } => message.clone(),
            JobError::Quarantined { .. } => "quarantined after a failed run".to_string(),
        }
    }

    /// Fixed-width degradation-mode label for figure and sweep cells,
    /// so operators can tell *what* failed at a glance instead of a
    /// conflated `ERR`: `PANIC` (a harness job panicked) or `QUAR`
    /// (quarantined by the `glsc-serve` supervisor).
    pub fn cell(&self) -> &'static str {
        match self {
            JobError::Panicked { .. } => "PANIC",
            JobError::Quarantined { .. } => "QUAR",
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panicked { index, message } => write!(f, "job {index} failed: {message}"),
            JobError::Quarantined { index } => write!(f, "job {index} {}", self.message()),
        }
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
/// with the job's index and, when the caller supplied one (see
/// [`run_jobs_labeled`]), its label, and comes back as
/// [`JobError::Panicked`]. Jobs are deterministic simulations, so a
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
        JobError::Panicked { index, message }
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
/// thread.
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

/// As [`run_jobs`], but each job carries a label (normally its job key)
/// that failure logging includes, so a failed job on a long figure run
/// can be identified from stderr alone.
pub fn run_jobs_labeled<T, F>(jobs: Vec<(String, F)>, threads: usize) -> Vec<Result<T, JobError>>
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
                    Err(JobError::Panicked {
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
            "!! {} job(s) failed; affected cells above are printed as ERR:",
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
                    assert!(matches!(e, JobError::Panicked { .. }));
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
        let outm = run_spec_cached(&JobStore::disabled(), &spec);
        assert!(outm.report.cycles > 0);
    }

    #[test]
    fn degradation_cells_are_pinned() {
        // Operators grep these exact labels out of figure tables and the
        // CI panic drill greps PANIC; changing one is a breaking change
        // to the output format.
        let panicked = JobError::Panicked {
            index: 0,
            message: "boom".into(),
        };
        let quar = JobError::Quarantined { index: 2 };
        assert_eq!(panicked.cell(), "PANIC");
        assert_eq!(panicked.to_string(), "job 0 failed: boom");
        assert_eq!(quar.cell(), "QUAR");
        assert_eq!(quar.message(), "quarantined after a failed run");
        assert_eq!(quar.index(), 2);
        assert_eq!(quar.to_string(), "job 2 quarantined after a failed run");
    }
}
