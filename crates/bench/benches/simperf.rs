//! Simulator throughput ("simperf"): how fast the simulator itself runs
//! on the host, not what the simulated machine does.
//!
//! Part 1 measures simulated cycles per host second for the event-driven
//! fast-forwarding loop ([`Machine::run`]) against the cycle-by-cycle
//! reference ([`Machine::run_naive`]) — the two produce cycle-for-cycle
//! identical reports (see `tests/differential.rs`), so the ratio is pure
//! simulator speedup. Timings are taken serially (one run at a time) so
//! wall clocks are not polluted by sibling jobs.
//!
//! Part 2 measures the wall clock of a full Figure-6-style sweep executed
//! serially versus fanned across host threads with
//! [`glsc_bench::run_jobs`], the thread pool under the figure benches'
//! `run_jobs_fleet`.
//!
//! Host timings are not cacheable, so this target skips the job store;
//! output is still written to `results/simperf.txt`.
//!
//! Honors `GLSC_DATASETS=tiny` and `GLSC_BENCH_THREADS` like the figure
//! benches.

use glsc_bench::{
    bench_threads, collect_errors, datasets, ds_label, finish_figure, geomean, run, run_jobs,
    FigureOutput, CONFIGS,
};
use glsc_kernels::{build_named, Dataset, Variant, KERNEL_NAMES};
use glsc_sim::{Machine, MachineConfig};
use std::time::Instant;

/// Runs one workload with either loop, returning (simulated cycles,
/// best-of-`reps` host seconds).
fn time_run(
    kernel: &str,
    ds: Dataset,
    shape: (usize, usize),
    width: usize,
    naive: bool,
    reps: u32,
) -> (u64, f64) {
    let cfg = MachineConfig::paper(shape.0, shape.1, width);
    let w = build_named(kernel, ds, Variant::Glsc, &cfg).expect("known kernel");
    let mut cycles = 0;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut machine = Machine::new(cfg.clone());
        w.image.apply(machine.mem_mut().backing_mut());
        machine.load_program(w.program.clone());
        let t0 = Instant::now();
        let report = if naive {
            machine.run_naive()
        } else {
            machine.run()
        }
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        best = best.min(t0.elapsed().as_secs_f64());
        cycles = report.cycles;
    }
    (cycles, best)
}

fn main() {
    let mut out = FigureOutput::new("simperf");
    out.header(
        "simperf part 1: fast-forward vs naive cycle loop (GLSC, 4-wide)",
        "Mcyc/s = simulated cycles per host second, best of 3; identical reports",
    );
    out.line(format!(
        "{:<6} {:>3} {:>6} {:>12} {:>12} {:>14} {:>9}",
        "bench", "ds", "shape", "sim cycles", "naive Mc/s", "fastfwd Mc/s", "speedup"
    ));
    let mut speedups = Vec::new();
    for shape in [(1usize, 1usize), (4, 4)] {
        for kernel in KERNEL_NAMES {
            for ds in datasets() {
                let (cycles, t_naive) = time_run(kernel, ds, shape, 4, true, 3);
                let (cycles_ff, t_ff) = time_run(kernel, ds, shape, 4, false, 3);
                assert_eq!(cycles, cycles_ff, "fast-forward must not change timing");
                let speedup = t_naive / t_ff;
                speedups.push(speedup);
                out.line(format!(
                    "{:<6} {:>3} {:>6} {:>12} {:>12.2} {:>14.2} {:>8.2}x",
                    kernel,
                    ds_label(ds),
                    format!("{}x{}", shape.0, shape.1),
                    cycles,
                    cycles as f64 / t_naive / 1e6,
                    cycles as f64 / t_ff / 1e6,
                    speedup
                ));
            }
        }
    }
    out.blank();
    out.line(format!(
        "fast-forward speedup, geomean: {:.2}x",
        geomean(&speedups)
    ));

    let threads = bench_threads();
    out.header(
        "simperf part 2: figure-sweep wall clock, serial vs parallel",
        "the Figure 6 job set: kernels x datasets x {Base,GLSC} x 4 shapes, 4-wide",
    );
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
    let wall = |threads: usize| {
        let jobs: Vec<_> = params
            .iter()
            .map(|&(kernel, ds, variant, cfg)| {
                move || run(kernel, ds, variant, cfg, 4).report.cycles
            })
            .collect();
        let t0 = Instant::now();
        let results = run_jobs(jobs, threads);
        (t0.elapsed().as_secs_f64(), results)
    };
    let (t_serial, r_serial) = wall(1);
    let (t_par, r_par) = wall(threads);
    assert_eq!(r_serial, r_par, "parallel harness must be deterministic");
    let errors = collect_errors(&r_par);
    out.line(format!("jobs: {}", params.len()));
    out.line(format!("serial   (1 thread):  {:>8.3} s", t_serial));
    out.line(format!("parallel ({threads:>2} threads): {:>8.3} s", t_par));
    out.line(format!("harness speedup: {:.2}x", t_serial / t_par));

    std::process::exit(finish_figure(out, &errors));
}
