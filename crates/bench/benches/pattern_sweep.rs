//! Pattern sweep: the glsc-patterns taxonomy crossed with topology and
//! arbitration, Base vs GLSC, on the paper's 4x4 machine.
//!
//! Each row is one declarative access-pattern spec (DESIGN.md §16)
//! compiled through the shared update-loop emitter and simulated under
//! one of four memory-system corners: {Ideal, Ring} NoC × {Free,
//! AgedPriority} SC arbitration. The sweep walks the taxonomy from the
//! GLSC best case (dense unit stride) to the worst (conflict:p=0.9,
//! near-total lane aliasing), so the table shows where vector atomics
//! stop paying for themselves as conflict density rises — and how much
//! of that cliff is the interconnect vs the arbiter.
//!
//! Output lands in `results/pattern_sweep.txt` (`-tiny` under
//! `GLSC_DATASETS=tiny`).

use glsc_bench::{
    bench_threads, collect_errors, config, datasets, finish_figure, run_jobs, run_spec_cached,
    FigureOutput, FleetJobSpec, JobStore,
};
use glsc_kernels::pattern::Pattern;
use glsc_kernels::Variant;
use glsc_mem::{ArbitrationPolicy, NocConfig};

/// The taxonomy walked by the sweep: best case to worst case for GLSC.
const SPECS: [&str; 7] = [
    "stride:1x1024",
    "stride:16x1024",
    "mostly:1x1024/p=0.05",
    "block:16/64",
    "conflict:p=0.1x256",
    "conflict:p=0.5x256",
    "conflict:p=0.9x256",
];

/// The memory-system corners: (label, NoC, arbitration).
fn corners() -> Vec<(&'static str, NocConfig, ArbitrationPolicy)> {
    vec![
        ("ideal/free", NocConfig::ideal(), ArbitrationPolicy::Free),
        (
            "ideal/aged",
            NocConfig::ideal(),
            ArbitrationPolicy::AgedPriority,
        ),
        ("ring/free", NocConfig::ring(), ArbitrationPolicy::Free),
        (
            "ring/aged",
            NocConfig::ring(),
            ArbitrationPolicy::AgedPriority,
        ),
    ]
}

fn jobs() -> Vec<FleetJobSpec> {
    let ds = datasets()[0];
    let mut jobs = Vec::new();
    for spec in SPECS {
        let pattern = Pattern::parse(spec)
            .unwrap_or_else(|e| panic!("sweep spec {spec:?}: {e}"))
            .for_dataset(ds);
        // Canonical form so cache keys are stable even if the sweep's
        // shorthand (default iters/seed elision) changes.
        let canonical = pattern.spec().to_string();
        for (corner, noc, arb) in corners() {
            for variant in [Variant::Base, Variant::Glsc] {
                let cfg = config(4, 4, 4).with_noc(noc.clone()).with_arbitration(arb);
                jobs.push(FleetJobSpec {
                    key_parts: vec![
                        "pattern".to_string(),
                        canonical.clone(),
                        corner.to_string(),
                        variant.label().to_string(),
                        "4x4".to_string(),
                        "w4".to_string(),
                    ],
                    workload: pattern.build(variant, &cfg),
                    cfg,
                });
            }
        }
    }
    jobs
}

fn main() {
    let store = JobStore::for_bench("pattern_sweep");
    let mut out = FigureOutput::new("pattern_sweep");
    out.header(
        "pattern sweep: access-pattern taxonomy x {Ideal,Ring} NoC x {Free,Aged} arbitration, 4x4 w4",
        "cycles per pattern spec, Base (ll/sc) vs GLSC (vgatherlink/vscattercond)",
    );

    let specs = jobs();
    let labels: Vec<String> = specs.iter().map(|s| s.key_parts.join(" ")).collect();
    let runs: Vec<_> = specs
        .iter()
        .map(|s| {
            let store = &store;
            move || run_spec_cached(store, s)
        })
        .collect();
    let results = run_jobs(runs, bench_threads());
    let errors = collect_errors(&results);

    out.line(format!("{:<52} {:>12}", "job", "sim cycles"));
    for (label, r) in labels.iter().zip(&results) {
        match r {
            Ok(outcome) => out.line(format!("{:<52} {:>12}", label, outcome.report.cycles)),
            Err(e) => out.line(format!("{:<52} {:>12}", label, e.cell())),
        }
    }
    std::process::exit(finish_figure(out, &errors));
}
