//! Figure 8: benefit of GLSC for 1-, 4- and 16-wide SIMD on the 4×4
//! configuration — the ratio of Base to GLSC execution time.
//!
//! Expected shape (paper §5.3): ≈1.0 at width 1 (GLSC introduces no
//! overhead when there is no vector parallelism to exploit), growing with
//! width (paper averages: +54% at 4-wide, +103% at 16-wide), largest for
//! the benchmarks with high SIMD efficiency.
//!
//! The (kernel, dataset, width, variant) runs are one job list that
//! `run_jobs_fleet` fans across host threads (`GLSC_BENCH_THREADS`);
//! output order is unchanged. Completed runs persist to the job store
//! (`GLSC_BENCH_RESUME=1` resumes); a job that panics prints as a
//! `PANIC` cell. The table is written to `results/fig8.txt`.

use glsc_bench::{
    bench_threads, collect_errors, datasets, ds_label, finish_figure, fleet_kernel_job, geomean,
    ratio, run_jobs_fleet, FigureOutput, JobStore,
};
use glsc_kernels::{Variant, KERNEL_NAMES};

fn main() {
    let store = JobStore::for_bench("fig8");
    let mut out = FigureOutput::new("fig8");
    out.header(
        "Figure 8: Base/GLSC execution-time ratio at 4x4",
        "paper: ~1.0x at 1-wide, grows with SIMD width",
    );
    let mut params = Vec::new();
    for kernel in KERNEL_NAMES {
        for ds in datasets() {
            for width in [1usize, 4, 16] {
                for variant in [Variant::Base, Variant::Glsc] {
                    params.push((kernel, ds, variant, width));
                }
            }
        }
    }
    let jobs = params
        .iter()
        .map(|&(kernel, ds, variant, width)| fleet_kernel_job(kernel, ds, variant, (4, 4), width))
        .collect();
    let results = run_jobs_fleet(&store, jobs, bench_threads());
    let errors = collect_errors(&results);

    out.line(format!(
        "{:<6} {:>3} {:>9} {:>9} {:>9}",
        "bench", "ds", "w1", "w4", "w16"
    ));
    let mut per_width: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    // Per (kernel, ds): [base w1, glsc w1, base w4, glsc w4, base w16,
    // glsc w16], matching the job-construction order above.
    let mut chunks = results.chunks(6);
    for kernel in KERNEL_NAMES {
        for ds in datasets() {
            let chunk = chunks.next().expect("six runs per (kernel, ds)");
            let mut row = format!("{:<6} {:>3}", kernel, ds_label(ds));
            for i in 0..3 {
                match (&chunk[2 * i], &chunk[2 * i + 1]) {
                    (Ok(base), Ok(glsc)) => {
                        let x = ratio(base.report.cycles, glsc.report.cycles);
                        per_width[i].push(x);
                        row.push_str(&format!(" {x:>8.2}x"));
                    }
                    (Err(e), _) | (_, Err(e)) => row.push_str(&format!(" {:>9}", e.cell())),
                }
            }
            out.line(row);
        }
    }
    out.line(format!(
        "{:<6} {:>3} {:>8.2}x {:>8.2}x {:>8.2}x   (paper: ~1.0 / ~1.54 / ~2.03)",
        "geo",
        "",
        geomean(&per_width[0]),
        geomean(&per_width[1]),
        geomean(&per_width[2])
    ));
    std::process::exit(finish_figure(out, &errors));
}
