//! Chaos smoke: every kernel under seeded fault injection (DESIGN.md §9).
//!
//! For each kernel and variant, runs the clean baseline and then a sweep
//! of `SEEDS` (3) seeded fault plans (seed values print with every row
//! so any run can be replayed). Each chaotic run revalidates against the
//! kernel's golden reference — this harness is the CI-facing atomicity
//! oracle — and the table reports how much the destroyed reservations
//! and jitter slowed the run, plus the raw injection counters.
//!
//! Chaotic runs are never cached (the oracle must actually run); a job
//! that panics prints as a typed degradation row and a nonzero exit. The table is
//! written to `results/chaos.txt`.
//!
//! Set `GLSC_DATASETS=tiny` for the CI smoke configuration.

use glsc_bench::{
    bench_threads, collect_errors, datasets, ds_label, finish_figure, run, run_chaos, run_jobs,
    FigureOutput,
};
use glsc_kernels::{Variant, KERNEL_NAMES};
use glsc_sim::ChaosConfig;

/// Fault plans per kernel and variant.
const SEEDS: u64 = 3;

fn main() {
    let mut out = FigureOutput::new("chaos");
    out.header(
        "Chaos smoke: fault injection with revalidation",
        "slowdown = chaotic cycles / clean cycles (geomean over seeds); every run validates",
    );
    let width = 4;
    let shape = (2, 2);
    let mut params = Vec::new();
    for kernel in KERNEL_NAMES {
        for ds in datasets() {
            for variant in [Variant::Base, Variant::Glsc] {
                params.push((kernel, ds, variant));
            }
        }
    }
    let jobs: Vec<_> = params
        .iter()
        .map(|&(kernel, ds, variant)| {
            move || {
                let clean = run(kernel, ds, variant, shape, width);
                let chaotic: Vec<_> = (0..SEEDS)
                    .map(|i| {
                        let seed = 0x5EED + 31 * i;
                        (
                            seed,
                            run_chaos(
                                kernel,
                                ds,
                                variant,
                                shape,
                                width,
                                ChaosConfig::from_seed(seed),
                            ),
                        )
                    })
                    .collect();
                (clean, chaotic)
            }
        })
        .collect();
    let results = run_jobs(jobs, bench_threads());
    let errors = collect_errors(&results);

    out.line(format!(
        "{:<6} {:>3} {:>6} {:>9} {:>9} {:>7} {:>8} {:>8}",
        "bench", "ds", "impl", "clean", "chaotic", "slow", "faults", "seeds"
    ));
    for ((kernel, ds, variant), result) in params.iter().zip(&results) {
        let Ok((clean, chaotic)) = result else {
            let cell = result.as_ref().err().map(|e| e.cell()).unwrap_or("ERR");
            out.line(format!(
                "{:<6} {:>3} {:>6} {:>9} {:>9} {:>7} {:>8} {:>8}",
                kernel,
                ds_label(*ds),
                variant.label(),
                cell,
                cell,
                cell,
                cell,
                cell
            ));
            continue;
        };
        let slow = glsc_bench::geomean(
            &chaotic
                .iter()
                .map(|(_, (out, _))| out.report.cycles as f64 / clean.report.cycles as f64)
                .collect::<Vec<_>>(),
        );
        let faults: u64 = chaotic.iter().map(|(_, (_, s))| s.total_faults()).sum();
        let seeds: Vec<u64> = chaotic.iter().map(|&(seed, _)| seed).collect();
        out.line(format!(
            "{:<6} {:>3} {:>6} {:>9} {:>9} {:>6.2}x {:>8} {:>8}",
            kernel,
            ds_label(*ds),
            variant.label(),
            clean.report.cycles,
            chaotic.last().map_or(0, |(_, (out, _))| out.report.cycles),
            slow,
            faults,
            format!("{:x?}", seeds),
        ));
    }
    out.blank();
    out.line(format!(
        "all {} chaotic runs validated against the golden references",
        results.iter().filter(|r| r.is_ok()).count() * SEEDS as usize
    ));
    std::process::exit(finish_figure(out, &errors));
}
