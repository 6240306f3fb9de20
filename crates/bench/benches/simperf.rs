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
//! [`glsc_bench::run_jobs`], which is how the figure benches run it.
//!
//! Host timings are not cacheable, so this target skips the job store;
//! output is still written to `results/simperf.txt`.
//!
//! Honors `GLSC_DATASETS=tiny` and `GLSC_BENCH_THREADS` like the figure
//! benches.

use glsc_bench::{
    bench_threads, collect_errors, config, datasets, ds_label, finish_figure, fleet_kernel_job,
    fleet_micro_job, geomean, run, run_jobs, run_jobs_fleet, FigureOutput, FleetJobSpec, JobStore,
    CONFIGS,
};
use glsc_kernels::micro::{MicroParams, Scenario};
use glsc_kernels::{build_named, run_workload, Dataset, Variant, KERNEL_NAMES};
use glsc_sim::Machine;
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
    let cfg = config(shape.0, shape.1, width);
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

    out.header(
        "simperf part 3: fleet engine vs one-machine-per-job (DESIGN.md 13)",
        "aggregate simulated cycles per host second over a whole sweep; identical reports",
    );
    // Sweep (a): a 512-job screening grid — short microbenchmark runs at
    // the paper's machine shapes, the regime where per-job setup weighs
    // most against simulation. Its parameters are fixed (independent of
    // GLSC_DATASETS) so the recorded ratio is comparable across runs.
    let screening = measure_sweep(&mut out, "screening-512", screening_jobs, 1, 1);
    // Sweep (b): the part-2 figure job set end to end, both paths fanned
    // across the same host threads — the realistic speedup a figure run
    // sees, where long simulations dilute per-job overhead.
    let suite = measure_sweep(&mut out, "figure-suite", suite_jobs, threads, threads);
    out.blank();
    out.line(format!(
        "fleet-vs-solo throughput: {:.2}x on screening-512 (serial), {:.2}x on figure-suite ({threads} threads)",
        screening.ratio(),
        suite.ratio()
    ));
    write_fleet_json(&screening, &suite, threads);

    std::process::exit(finish_figure(out, &errors));
}

/// One measured sweep half: the solo or fleet side's aggregate numbers.
struct SweepSide {
    host_sec: f64,
    sim_cycles: u64,
    jobs: usize,
}

impl SweepSide {
    fn jobs_per_sec(&self) -> f64 {
        self.jobs as f64 / self.host_sec
    }
    fn mcyc_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.host_sec / 1e6
    }
}

/// A measured solo-vs-fleet sweep comparison.
struct SweepResult {
    label: &'static str,
    solo: SweepSide,
    fleet: SweepSide,
    solo_threads: usize,
    fleet_threads: usize,
}

impl SweepResult {
    fn ratio(&self) -> f64 {
        self.fleet.mcyc_per_sec() / self.solo.mcyc_per_sec()
    }
}

/// The 512-job screening grid: every §5.2 scenario × Fig. 6 shape ×
/// width {1,4} × {Base, GLSC} × eight dataset seeds, one iteration per
/// thread. Eight distinct machine configurations over 512 short jobs —
/// the parameter-screening regime, where the fleet builds one machine
/// per configuration and the solo path one per job.
fn screening_jobs() -> Vec<FleetJobSpec> {
    let mut jobs = Vec::new();
    for seed in [72, 73, 74, 75, 76, 77, 78, 79] {
        for scenario in Scenario::ALL {
            for shape in CONFIGS {
                for width in [1, 4] {
                    for variant in [Variant::Base, Variant::Glsc] {
                        let params = MicroParams {
                            iters: 1,
                            private_lines: 8,
                            shared_lines: 32,
                            seed,
                        };
                        jobs.push(fleet_micro_job(scenario, params, variant, shape, width));
                    }
                }
            }
        }
    }
    jobs
}

/// The part-2 figure job set as fleet specs.
fn suite_jobs() -> Vec<FleetJobSpec> {
    let mut jobs = Vec::new();
    for kernel in KERNEL_NAMES {
        for ds in datasets() {
            for variant in [Variant::Base, Variant::Glsc] {
                for shape in CONFIGS {
                    jobs.push(fleet_kernel_job(kernel, ds, variant, shape, 4));
                }
            }
        }
    }
    jobs
}

/// Times one sweep through both paths — the classic build-run-drop loop
/// under [`run_jobs`] and the batched [`run_jobs_fleet`] — asserting the
/// per-job cycle counts agree, and prints the comparison rows. Workload
/// construction is timed on both sides; neither path consults the job
/// store (host timings are not cacheable). Each side is run
/// `SWEEP_REPS` times and the best wall time kept (as in part 1): the
/// first fleet in a process pays one-time allocator warm-up that would
/// otherwise swamp the steady-state throughput a sweep actually sees.
fn measure_sweep(
    out: &mut FigureOutput,
    label: &'static str,
    make: fn() -> Vec<FleetJobSpec>,
    solo_threads: usize,
    fleet_threads: usize,
) -> SweepResult {
    const SWEEP_REPS: usize = 3;
    let store = JobStore::disabled();

    let mut t_solo = f64::INFINITY;
    let mut solo_cycles: Vec<u64> = Vec::new();
    for _ in 0..SWEEP_REPS {
        let t0 = Instant::now();
        let specs = make();
        let solo_closures: Vec<_> = specs
            .iter()
            .map(|s| || run_workload(&s.workload, &s.cfg).unwrap().report.cycles)
            .collect();
        solo_cycles = run_jobs(solo_closures, solo_threads)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
            .collect();
        drop(specs);
        t_solo = t_solo.min(t0.elapsed().as_secs_f64());
    }

    let mut t_fleet = f64::INFINITY;
    for _ in 0..SWEEP_REPS {
        let t1 = Instant::now();
        let specs = make();
        let fleet_cycles: Vec<u64> = run_jobs_fleet(&store, specs, fleet_threads)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{e}")).report.cycles)
            .collect();
        t_fleet = t_fleet.min(t1.elapsed().as_secs_f64());
        assert_eq!(solo_cycles, fleet_cycles, "fleet must not change timing");
    }
    let jobs = solo_cycles.len();
    let sim_cycles: u64 = solo_cycles.iter().sum();
    let result = SweepResult {
        label,
        solo: SweepSide {
            host_sec: t_solo,
            sim_cycles,
            jobs,
        },
        fleet: SweepSide {
            host_sec: t_fleet,
            sim_cycles,
            jobs,
        },
        solo_threads,
        fleet_threads,
    };
    out.line(format!(
        "{label}: {jobs} jobs, {:.1} Msim-cycles",
        sim_cycles as f64 / 1e6
    ));
    for (name, side, threads) in [
        ("solo ", &result.solo, solo_threads),
        ("fleet", &result.fleet, fleet_threads),
    ] {
        out.line(format!(
            "  {name} ({threads:>2} thr): {:>8.3} s  {:>8.1} jobs/s  {:>10.2} Mcyc/s",
            side.host_sec,
            side.jobs_per_sec(),
            side.mcyc_per_sec()
        ));
    }
    out.line(format!("  fleet-vs-solo: {:.2}x", result.ratio()));
    result
}

/// Emits the machine-readable fleet throughput record next to the figure
/// text (same directory and tiny-suffix rules as [`FigureOutput`]).
fn write_fleet_json(screening: &SweepResult, suite: &SweepResult, threads: usize) {
    let side = |s: &SweepSide| {
        format!(
            "{{ \"jobs\": {}, \"host_sec\": {:.6}, \"jobs_per_sec\": {:.3}, \"sim_cycles\": {}, \"sim_mcycles_per_host_sec\": {:.3} }}",
            s.jobs,
            s.host_sec,
            s.jobs_per_sec(),
            s.sim_cycles,
            s.mcyc_per_sec()
        )
    };
    let sweep = |r: &SweepResult| {
        format!(
            "  \"{}\": {{\n    \"solo_threads\": {},\n    \"fleet_threads\": {},\n    \"solo\": {},\n    \"fleet\": {},\n    \"fleet_vs_solo\": {:.3}\n  }}",
            r.label,
            r.solo_threads,
            r.fleet_threads,
            side(&r.solo),
            side(&r.fleet),
            r.ratio()
        )
    };
    let tiny = std::env::var("GLSC_DATASETS").is_ok_and(|v| v == "tiny");
    let json = format!(
        "{{\n  \"bench\": \"simperf part 3\",\n  \"datasets\": \"{}\",\n  \"host_threads\": {threads},\n{},\n{}\n}}\n",
        if tiny { "tiny" } else { "full" },
        sweep(screening),
        sweep(suite)
    );
    let dir = std::env::var("GLSC_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    let suffix = if tiny { "-tiny" } else { "" };
    let path = dir.join(format!("BENCH_fleet{suffix}.json"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, &json)?;
        std::fs::rename(&tmp, &path)
    };
    match write() {
        Ok(()) => println!("fleet throughput record: {}", path.display()),
        Err(e) => eprintln!("simperf: failed to write {}: {e}", path.display()),
    }
}
