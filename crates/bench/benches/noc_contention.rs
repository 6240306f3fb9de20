//! NoC contention study: how interconnect topology bends the speedup
//! curves as thread count grows.
//!
//! The paper's evaluation folds the on-die fabric into a fixed 12-cycle
//! L2 latency (our `Topology::Ideal`). This figure sweeps the explicit
//! fabrics — ideal, full crossbar, bidirectional ring — over thread
//! counts 4..32 for three coherence-intensive kernels, printing each
//! topology's slowdown relative to the ideal fabric at the same machine
//! shape, the ring's mean link-queueing delay per message, and whether
//! GLSC's advantage over Base survives a contended fabric.
//!
//! The jobs are one list run by `run_jobs_fleet`; they persist to the
//! job store and resume with `GLSC_BENCH_RESUME=1`. The table is written
//! to `results/noc_contention.txt`.

use glsc_bench::{
    bench_threads, collect_errors, datasets, ds_label, finish_figure, geomean, run_jobs_fleet,
    FigureOutput, FleetJobSpec, JobStore,
};
use glsc_kernels::{build_named, Variant};
use glsc_sim::{MachineConfig, NocConfig, Topology};

const KERNELS: [&str; 3] = ["HIP", "TMS", "GBC"];
const SHAPES: [(usize, usize); 4] = [(1, 4), (2, 4), (4, 4), (8, 4)];
const TOPOLOGIES: [Topology; 3] = [Topology::Ideal, Topology::Crossbar, Topology::Ring];

fn noc_for(topo: Topology) -> NocConfig {
    match topo {
        Topology::Ideal => NocConfig::ideal(),
        Topology::Crossbar => NocConfig::crossbar(),
        Topology::Ring => NocConfig::ring(),
    }
}

fn main() {
    let store = JobStore::for_bench("noc_contention");
    let mut out = FigureOutput::new("noc_contention");
    out.header(
        "NoC contention: slowdown vs the ideal fabric, 4-wide SIMD",
        "columns: config = cores x threads/core; 1.00x = ideal-fabric time",
    );
    let width = 4;
    let mut params = Vec::new();
    for kernel in KERNELS {
        for ds in datasets() {
            for variant in [Variant::Base, Variant::Glsc] {
                for topo in TOPOLOGIES {
                    for shape in SHAPES {
                        params.push((kernel, ds, variant, topo, shape));
                    }
                }
            }
        }
    }
    let jobs = params
        .iter()
        .map(|&(kernel, ds, variant, topo, (cores, tpc))| {
            let cfg = MachineConfig::paper(cores, tpc, width).with_noc(noc_for(topo));
            FleetJobSpec {
                key_parts: vec![
                    "noc".to_string(),
                    kernel.to_string(),
                    ds_label(ds).to_string(),
                    variant.label().to_string(),
                    topo.label().to_string(),
                    format!("{cores}x{tpc}"),
                    format!("w{width}"),
                ],
                workload: build_named(kernel, ds, variant, &cfg).expect("known kernel"),
                cfg,
            }
        })
        .collect();
    let results = run_jobs_fleet(&store, jobs, bench_threads());
    let errors = collect_errors(&results);
    let reports: std::collections::HashMap<_, _> = params
        .iter()
        .zip(&results)
        .map(|(&key, r)| {
            (
                key,
                r.as_ref()
                    .map(|out| out.report.clone())
                    .map_err(|e| e.cell()),
            )
        })
        .collect();

    out.line(format!(
        "{:<6} {:>3} {:>6} {:>6} {:>8} {:>8} {:>8} {:>8}",
        "bench", "ds", "impl", "topo", "1x4", "2x4", "4x4", "8x4"
    ));
    let mut ring_ratio_base = Vec::new();
    let mut ring_ratio_glsc = Vec::new();
    for kernel in KERNELS {
        for ds in datasets() {
            for variant in [Variant::Base, Variant::Glsc] {
                for topo in TOPOLOGIES {
                    let mut row = format!(
                        "{:<6} {:>3} {:>6} {:>6}",
                        kernel,
                        ds_label(ds),
                        variant.label(),
                        topo.label()
                    );
                    for shape in SHAPES {
                        let ideal = &reports[&(kernel, ds, variant, Topology::Ideal, shape)];
                        let this = &reports[&(kernel, ds, variant, topo, shape)];
                        match (ideal, this) {
                            (Ok(i), Ok(t)) => {
                                row.push_str(&format!(
                                    "  {:>6.2}x",
                                    t.cycles as f64 / i.cycles as f64
                                ));
                            }
                            // This job failed: show its degradation mode.
                            (_, Err(cell)) => row.push_str(&format!("  {:>7}", cell)),
                            // The ideal-fabric normalizer died; the value
                            // exists but cannot be expressed as a ratio.
                            (Err(_), Ok(_)) => row.push_str(&format!("  {:>7}", "ERR")),
                        }
                    }
                    out.line(row);
                    if topo == Topology::Ring {
                        let big = SHAPES[SHAPES.len() - 1];
                        if let (Ok(i), Ok(t)) = (
                            &reports[&(kernel, ds, variant, Topology::Ideal, big)],
                            &reports[&(kernel, ds, variant, Topology::Ring, big)],
                        ) {
                            let ratio = t.cycles as f64 / i.cycles as f64;
                            if variant == Variant::Base {
                                ring_ratio_base.push(ratio);
                            } else {
                                ring_ratio_glsc.push(ratio);
                            }
                        }
                    }
                }
            }
        }
    }

    out.blank();
    out.line(format!(
        "{:<6} {:>3}  ring queueing at 8x4 (GLSC): cycles/msg, total msgs, hops",
        "bench", "ds"
    ));
    for kernel in KERNELS {
        for ds in datasets() {
            if let Ok(r) = &reports[&(kernel, ds, Variant::Glsc, Topology::Ring, (8, 4))] {
                let n = &r.mem.noc;
                out.line(format!(
                    "{:<6} {:>3}  {:>8.2} {:>12} {:>10}",
                    kernel,
                    ds_label(ds),
                    n.queue_cycles_per_msg(),
                    n.total_msgs(),
                    n.hops
                ));
            }
        }
    }
    out.blank();
    out.line(format!(
        "ring slowdown at 8x4, geomean: Base = {:.2}x, GLSC = {:.2}x",
        geomean(&ring_ratio_base),
        geomean(&ring_ratio_glsc)
    ));
    std::process::exit(finish_figure(out, &errors));
}
