//! Figure 7: microbenchmark scenarios A–D on the 4×4 configuration.
//!
//! Each bar of the paper's figure is the ratio of Base to GLSC execution
//! time for SIMD widths 4 and 16. Expected shape: large wins in A (miss
//! overlap), solid wins in B/C (instruction + L1-access reduction), and a
//! tie or loss in D (full aliasing), with D degrading further at 16-wide.
//!
//! Every scenario runs at the standard microbenchmark parameters of the
//! first dataset (A, or tiny under `GLSC_DATASETS=tiny`). The (scenario,
//! variant, width) runs are one job list that `run_jobs_fleet` fans
//! across host threads (`GLSC_BENCH_THREADS`); output order is
//! unchanged. Completed runs persist to the job store
//! (`GLSC_BENCH_RESUME=1` resumes); a job that panics prints as a
//! `PANIC` cell. The table is written to `results/fig7.txt`.

use glsc_bench::{
    bench_threads, collect_errors, datasets, finish_figure, fleet_micro_job, ratio, run_jobs_fleet,
    FigureOutput, JobStore,
};
use glsc_kernels::micro::{MicroParams, Scenario};
use glsc_kernels::Variant;

fn main() {
    let store = JobStore::for_bench("fig7");
    let mut out = FigureOutput::new("fig7");
    out.header(
        "Figure 7: microbenchmark, Base/GLSC execution-time ratio (4x4)",
        "scenario A: shared distinct lines | B: same line | C: private lines | D: all aliased",
    );
    let mut params = Vec::new();
    for scenario in Scenario::ALL {
        for width in [4usize, 16] {
            for variant in [Variant::Base, Variant::Glsc] {
                params.push((scenario, variant, width));
            }
        }
    }
    let micro = MicroParams::for_dataset(datasets()[0]);
    let jobs = params
        .iter()
        .map(|&(scenario, variant, width)| {
            fleet_micro_job(scenario, micro.clone(), variant, (4, 4), width)
        })
        .collect();
    let results = run_jobs_fleet(&store, jobs, bench_threads());
    let errors = collect_errors(&results);

    out.line(format!(
        "{:<9} {:>12} {:>12}",
        "scenario", "width 4", "width 16"
    ));
    // Results arrive in job order: per scenario, [base w4, glsc w4,
    // base w16, glsc w16].
    for (scenario, chunk) in Scenario::ALL.into_iter().zip(results.chunks(4)) {
        let cell =
            |base: &Result<glsc_kernels::KernelOutcome, glsc_bench::JobError>,
             glsc: &Result<glsc_kernels::KernelOutcome, glsc_bench::JobError>| {
                match (base, glsc) {
                    (Ok(b), Ok(g)) => {
                        format!("{:>11.2}x", ratio(b.report.cycles, g.report.cycles))
                    }
                    (Err(e), _) | (_, Err(e)) => format!("{:>12}", e.cell()),
                }
            };
        out.line(format!(
            "{:<9} {} {}",
            scenario.label(),
            cell(&chunk[0], &chunk[1]),
            cell(&chunk[2], &chunk[3])
        ));
    }
    std::process::exit(finish_figure(out, &errors));
}
