//! Table 4: analysis of GLSC on the 4×4, 4-wide configuration.
//!
//! Per benchmark and dataset:
//! * reduction in dynamic instructions (GLSC vs Base),
//! * reduction in memory-stall cycles,
//! * L1-access analysis: the share of L1 accesses made by atomic
//!   operations, and the share of *atomic* accesses eliminated by
//!   same-line combining in the GSU,
//! * GLSC element failure rates at 1×1 (aliasing only) and 4×4 (aliasing
//!   plus cross-thread conflicts).
//!
//! The three runs per (kernel, dataset) cell are part of one job list
//! that `run_jobs_fleet` fans across host threads (`GLSC_BENCH_THREADS`);
//! output order is unchanged. Completed runs persist to the job store
//! (`GLSC_BENCH_RESUME=1` resumes); a job that panics prints its whole
//! row as a `PANIC` cell. The table is written to `results/table4.txt`.

use glsc_bench::{
    bench_threads, collect_errors, datasets, ds_label, finish_figure, fleet_kernel_job, pct,
    run_jobs_fleet, FigureOutput, JobStore,
};
use glsc_kernels::{Variant, KERNEL_NAMES};

fn main() {
    let store = JobStore::for_bench("table4");
    let mut out = FigureOutput::new("table4");
    out.header(
        "Table 4: analysis of GLSC (4-wide SIMD)",
        "reductions are GLSC vs Base at 4x4; failure rates from GLSC runs",
    );
    let mut params = Vec::new();
    for kernel in KERNEL_NAMES {
        for ds in datasets() {
            params.push((kernel, ds, Variant::Base, (4, 4)));
            params.push((kernel, ds, Variant::Glsc, (4, 4)));
            params.push((kernel, ds, Variant::Glsc, (1, 1)));
        }
    }
    let jobs = params
        .iter()
        .map(|&(kernel, ds, variant, cfg)| fleet_kernel_job(kernel, ds, variant, cfg, 4))
        .collect();
    let results = run_jobs_fleet(&store, jobs, bench_threads());
    let errors = collect_errors(&results);

    out.line(format!(
        "{:<6} {:>3} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "bench", "ds", "instr red", "stall red", "comb red", "atomic%", "fail 1x1", "fail 4x4"
    ));
    let mut chunks = results.chunks(3);
    for kernel in KERNEL_NAMES {
        for ds in datasets() {
            let chunk = chunks.next().expect("three runs per cell");
            let (Ok(base), Ok(glsc), Ok(glsc_1x1)) = (&chunk[0], &chunk[1], &chunk[2]) else {
                let cell = chunk
                    .iter()
                    .find_map(|r| r.as_ref().err())
                    .map(|e| e.cell())
                    .unwrap_or("ERR");
                out.line(format!(
                    "{:<6} {:>3} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9}",
                    kernel,
                    ds_label(ds),
                    cell,
                    cell,
                    cell,
                    cell,
                    cell,
                    cell
                ));
                continue;
            };

            let bi = base.report.total_instructions() as f64;
            let gi = glsc.report.total_instructions() as f64;
            let instr_red = (bi - gi) / bi;

            let bs = base.report.total_mem_stalls() as f64;
            let gs = glsc.report.total_mem_stalls() as f64;
            let stall_red = if bs > 0.0 { (bs - gs) / bs } else { 0.0 };

            // L1 accesses due to atomic ops, and combining savings
            // relative to an uncombined implementation.
            let atomic = glsc.report.atomic_l1_accesses() as f64;
            let atomic_unc = glsc.report.atomic_l1_accesses_uncombined() as f64;
            let total_l1 = glsc.report.l1_accesses() as f64;
            let comb_red = if atomic_unc > 0.0 {
                (atomic_unc - atomic) / atomic_unc
            } else {
                0.0
            };
            let atomic_share = if total_l1 > 0.0 {
                atomic / total_l1
            } else {
                0.0
            };

            out.line(format!(
                "{:<6} {:>3} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9}",
                kernel,
                ds_label(ds),
                pct(instr_red),
                pct(stall_red),
                pct(comb_red),
                pct(atomic_share),
                pct(glsc_1x1.report.glsc_failure_rate()),
                pct(glsc.report.glsc_failure_rate()),
            ));
        }
    }
    out.blank();
    out.line("paper reference: avg instr reduction 33.8%, avg memory-stall reduction 23.4%,");
    out.line("1x1 failures only from aliasing (GBC ~31-34%, HIP ~20-35%, others ~0%),");
    out.line("4x4 failure rates within ~0.1% of 1x1 (cross-thread conflicts are rare).");
    std::process::exit(finish_figure(out, &errors));
}
