//! Figure 5: benchmark behavior with GLSC in the 1×1 configuration.
//!
//! (a) Percent of execution time in synchronization operations (1-wide
//!     SIMD, GLSC — "very similar to ... Base" per §5.1).
//! (b) SIMD efficiency: speedup of 4-wide and 16-wide SIMD over 1-wide.
//!
//! The (kernel, dataset, width) simulations are one job list run by
//! `run_jobs_fleet` across host threads (`GLSC_BENCH_THREADS`); results
//! are collected in job order so the printed tables match the serial
//! harness exactly. Completed simulations persist to the job store
//! (`GLSC_BENCH_RESUME=1` resumes an interrupted sweep); a job that
//! panics prints as a `PANIC` row. Both tables are written to
//! `results/fig5.txt`.

use glsc_bench::{
    bench_threads, collect_errors, datasets, ds_label, finish_figure, fleet_kernel_job,
    run_jobs_fleet, FigureOutput, JobStore,
};
use glsc_kernels::{Variant, KERNEL_NAMES};

fn main() {
    let store = JobStore::for_bench("fig5");
    let mut out = FigureOutput::new("fig5");
    let mut params = Vec::new();
    for kernel in KERNEL_NAMES {
        for ds in datasets() {
            for width in [1usize, 4, 16] {
                params.push((kernel, ds, width));
            }
        }
    }
    let jobs = params
        .iter()
        .map(|&(kernel, ds, width)| fleet_kernel_job(kernel, ds, Variant::Glsc, (1, 1), width))
        .collect();
    let results = run_jobs_fleet(&store, jobs, bench_threads());
    let errors = collect_errors(&results);

    out.header(
        "Figure 5(a): % execution time in synchronization (1x1, 1-wide, GLSC)",
        "paper: all benchmarks spend a significant fraction in sync ops",
    );
    out.line(format!("{:<6} {:>4} {:>14}", "bench", "ds", "sync time"));
    // Row label → (4-wide, 16-wide) speedups, or the degradation cell.
    type Fig5bRow = (String, Result<(f64, f64), &'static str>);
    let mut fig5b: Vec<Fig5bRow> = Vec::new();
    for (&(kernel, ds, _), chunk) in params.iter().step_by(3).zip(results.chunks(3)) {
        let [w1, w4, w16] = chunk else {
            unreachable!("three widths per pair")
        };
        match w1 {
            Ok(w1) => out.line(format!(
                "{:<6} {:>4} {:>13.1}%",
                kernel,
                ds_label(ds),
                100.0 * w1.report.sync_fraction()
            )),
            Err(e) => out.line(format!(
                "{:<6} {:>4} {:>14}",
                kernel,
                ds_label(ds),
                e.cell()
            )),
        }
        let speedups = match (w1, w4, w16) {
            (Ok(w1), Ok(w4), Ok(w16)) => Ok((
                w1.report.cycles as f64 / w4.report.cycles as f64,
                w1.report.cycles as f64 / w16.report.cycles as f64,
            )),
            // Label the pair with the first failed width's degradation
            // mode so 5(b) says how the row died.
            _ => Err(chunk
                .iter()
                .find_map(|r| r.as_ref().err())
                .map(|e| e.cell())
                .unwrap_or("ERR")),
        };
        fig5b.push((format!("{kernel}/{}", ds_label(ds)), speedups));
    }

    out.header(
        "Figure 5(b): SIMD efficiency — speedup over 1-wide SIMD (1x1, GLSC)",
        "paper: ~2.6x average at 4-wide, ~5x at 16-wide",
    );
    out.line(format!(
        "{:<10} {:>10} {:>10}",
        "bench/ds", "4-wide", "16-wide"
    ));
    let (mut s4, mut s16) = (Vec::new(), Vec::new());
    for (name, speedups) in &fig5b {
        match speedups {
            Ok((a, b)) => {
                out.line(format!("{name:<10} {a:>9.2}x {b:>9.2}x"));
                s4.push(*a);
                s16.push(*b);
            }
            Err(cell) => out.line(format!("{name:<10} {cell:>10} {cell:>10}")),
        }
    }
    out.line(format!(
        "{:<10} {:>9.2}x {:>9.2}x",
        "geomean",
        glsc_bench::geomean(&s4),
        glsc_bench::geomean(&s16)
    ));
    std::process::exit(finish_figure(out, &errors));
}
