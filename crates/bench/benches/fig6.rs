//! Figure 6: normalized performance for 4-wide SIMD.
//!
//! For each benchmark and dataset, runs Base and GLSC over the four
//! machine shapes 1×1, 1×4, 4×1 and 4×4 and prints the speedup normalized
//! to the execution time of the **1×1 GLSC** configuration for that
//! dataset (the paper's normalization). The closing summary reports the
//! average GLSC-over-Base improvement at 1×1 and 4×4 (paper: 76% / 54%).
//!
//! All (kernel, dataset, variant, config) simulations are one job list
//! that `run_jobs_fleet` fans across host threads (`GLSC_BENCH_THREADS`);
//! output order is unchanged. Completed simulations persist to the job store, so an
//! interrupted sweep resumes with `GLSC_BENCH_RESUME=1`; a failed job
//! prints as a `PANIC` cell and a nonzero exit instead of aborting the
//! figure. The table is also written to `results/fig6.txt`.

use glsc_bench::{
    bench_threads, collect_errors, datasets, ds_label, finish_figure, fleet_kernel_job, geomean,
    run_jobs_fleet, FigureOutput, JobStore, CONFIGS,
};
use glsc_kernels::{Variant, KERNEL_NAMES};

fn main() {
    let store = JobStore::for_bench("fig6");
    let mut out = FigureOutput::new("fig6");
    out.header(
        "Figure 6: speedup over 1x1 GLSC, 4-wide SIMD",
        "columns: config = cores x threads/core; values normalized per dataset",
    );
    let width = 4;
    let mut params = Vec::new();
    for kernel in KERNEL_NAMES {
        for ds in datasets() {
            for variant in [Variant::Base, Variant::Glsc] {
                for cfg in CONFIGS {
                    params.push((kernel, ds, variant, cfg));
                }
            }
        }
    }
    let jobs = params
        .iter()
        .map(|&(kernel, ds, variant, cfg)| fleet_kernel_job(kernel, ds, variant, cfg, width))
        .collect();
    let results = run_jobs_fleet(&store, jobs, bench_threads());
    let errors = collect_errors(&results);
    // Per-job cycles, or the failed job's degradation cell (PANIC) so the
    // figure says *how* a row died, not just that it did.
    let cycles: std::collections::HashMap<_, _> = params
        .iter()
        .zip(&results)
        .map(|(&(kernel, ds, variant, cfg), r)| {
            (
                (kernel, ds, variant, cfg),
                r.as_ref()
                    .map(|out| out.report.cycles)
                    .map_err(|e| e.cell()),
            )
        })
        .collect();

    let mut improv_1x1 = Vec::new();
    let mut improv_4x4 = Vec::new();
    out.line(format!(
        "{:<6} {:>3} {:>6} {:>8} {:>8} {:>8} {:>8}",
        "bench", "ds", "impl", "1x1", "1x4", "4x1", "4x4"
    ));
    for kernel in KERNEL_NAMES {
        for ds in datasets() {
            let norm = cycles[&(kernel, ds, Variant::Glsc, (1, 1))];
            for variant in [Variant::Base, Variant::Glsc] {
                let mut row = format!("{:<6} {:>3} {:>6}", kernel, ds_label(ds), variant.label());
                for cfg in CONFIGS {
                    match (norm, cycles[&(kernel, ds, variant, cfg)]) {
                        (Ok(n), Ok(c)) => {
                            row.push_str(&format!("  {:>6.2}x", n as f64 / c as f64));
                        }
                        // This job failed: show its own degradation mode.
                        (_, Err(cell)) => row.push_str(&format!("  {:>7}", cell)),
                        // This job ran but the 1x1 GLSC normalizer died:
                        // the value exists but cannot be normalized.
                        (Err(_), Ok(_)) => row.push_str(&format!("  {:>7}", "ERR")),
                    }
                }
                out.line(row);
            }
            if let (Ok(b), Ok(g)) = (
                cycles[&(kernel, ds, Variant::Base, (1, 1))],
                cycles[&(kernel, ds, Variant::Glsc, (1, 1))],
            ) {
                improv_1x1.push(b as f64 / g as f64);
            }
            if let (Ok(b), Ok(g)) = (
                cycles[&(kernel, ds, Variant::Base, (4, 4))],
                cycles[&(kernel, ds, Variant::Glsc, (4, 4))],
            ) {
                improv_4x4.push(b as f64 / g as f64);
            }
        }
    }
    out.blank();
    out.line(format!(
        "GLSC over Base, geomean: 1x1 = +{:.0}%  (paper: +76%),  4x4 = +{:.0}%  (paper: +54%)",
        100.0 * (geomean(&improv_1x1) - 1.0),
        100.0 * (geomean(&improv_4x4) - 1.0)
    ));
    std::process::exit(finish_figure(out, &errors));
}
