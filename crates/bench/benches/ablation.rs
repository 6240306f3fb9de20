//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **GLSC entry implementation** (§3.3): per-line tag bits vs a
//!    fully-associative buffer of 1 / 4 / 16 / 64 entries.
//! 2. **Gather-link failure policy** (§3.2): wait-for-miss (default) vs
//!    fail-on-miss.
//! 3. **Stride prefetcher** on/off (§4.1).
//!
//! Each ablation runs the GLSC histogram (HIP) and the TMS reduction on
//! the 4×4 machine and reports cycles plus the GLSC element failure rate.
//! Every point runs with a starvation threshold of 5,000 consecutive SC
//! failures, so a point whose retry loops livelock fails at once as a
//! typed `Starvation` error instead of spinning to the 2×10⁹-cycle
//! budget. All configuration points are one job list that
//! `run_jobs_fleet` fans across host threads (`GLSC_BENCH_THREADS`);
//! output order is unchanged. Completed points persist to the job store
//! keyed by a config fingerprint, so every ablation point caches
//! separately (`GLSC_BENCH_RESUME=1` resumes); a job that fails prints
//! as a `PANIC` cell and the run exits 1. Output goes to
//! `results/ablation.txt`.

use glsc_bench::{
    bench_threads, collect_errors, datasets, ds_label, finish_figure, pct, run_jobs_fleet,
    FigureOutput, FleetJobSpec, JobError, JobStore,
};
use glsc_kernels::{build_named, KernelOutcome, Variant};
use glsc_sim::{GlscConfig, MachineConfig};

type Outcome = Result<KernelOutcome, JobError>;

fn cycles_cell(r: &Outcome) -> String {
    match r {
        Ok(o) => format!("{:>12}", o.report.cycles),
        Err(e) => format!("{:>12}", e.cell()),
    }
}

fn fail_cell(r: &Outcome) -> String {
    match r {
        Ok(o) => format!("{:>10}", pct(o.report.glsc_failure_rate())),
        Err(e) => format!("{:>10}", e.cell()),
    }
}

fn main() {
    let store = JobStore::for_bench("ablation");
    let mut out = FigureOutput::new("ablation");
    // The ablations' one dataset: A, or tiny under `GLSC_DATASETS=tiny`.
    let ds = datasets()[0];
    let base_cfg = MachineConfig::paper(4, 4, 4).with_starvation_threshold(Some(5_000));

    // Every ablation point, in print order. Each configuration runs HIP
    // and TMS, so each point contributes two consecutive jobs.
    //
    // At 4 entries (one 4-wide instruction's worth, shared by 4 SMT
    // threads) the threads evict each other's links, and under Free
    // arbitration TMS's retry loops stop converging on dataset A: a
    // thread reaches 5,000 SC failures in a row, every other thread
    // nearly as many, and the starvation threshold ends the point. The
    // paper's "one to SIMD-width x #SMT threads" sizing needs more than
    // per-instruction capacity under SMT.
    const BUFFERS: [Option<usize>; 4] = [None, Some(64), Some(16), Some(4)];
    const POLICIES: [(&str, bool); 2] = [("wait-for-miss", false), ("fail-on-miss", true)];
    let mut points: Vec<(String, MachineConfig)> = Vec::new();
    for buffer in BUFFERS {
        let mut cfg = base_cfg.clone();
        cfg.mem.glsc_buffer_entries = buffer;
        let label = buffer.map_or("per-line".to_string(), |k| format!("buf{k}"));
        points.push((label, cfg));
    }
    for (label, fail_on_miss) in POLICIES {
        let mut cfg = base_cfg.clone();
        cfg.glsc = GlscConfig {
            fail_on_l1_miss: fail_on_miss,
        };
        points.push((label.to_string(), cfg));
    }
    for on in [true, false] {
        let mut cfg = base_cfg.clone();
        cfg.mem.prefetch = on;
        points.push((format!("prefetch-{}", if on { "on" } else { "off" }), cfg));
    }
    let jobs = points
        .iter()
        .flat_map(|(label, cfg)| {
            ["HIP", "TMS"].into_iter().map(move |kernel| FleetJobSpec {
                key_parts: ["ablation", label, kernel, ds_label(ds), "w4"]
                    .map(String::from)
                    .to_vec(),
                workload: build_named(kernel, ds, Variant::Glsc, cfg).expect("known kernel"),
                cfg: cfg.clone(),
            })
        })
        .collect();
    let results = run_jobs_fleet(&store, jobs, bench_threads());
    let errors = collect_errors(&results);
    let mut rows = results.chunks(2);

    out.header(
        "Ablation 1: GLSC entry storage (per-line tags vs fully-assoc buffer)",
        "paper 3.3: the buffer \"could be made quite small\"",
    );
    out.line(format!(
        "{:<10} {:>12} {:>10} {:>12} {:>10}",
        "entries", "HIP cyc", "HIP fail", "TMS cyc", "TMS fail"
    ));
    for buffer in BUFFERS {
        let row = rows.next().expect("HIP+TMS per buffer size");
        let (hip, tms) = (&row[0], &row[1]);
        let label = buffer.map_or("per-line".to_string(), |k| format!("buf[{k}]"));
        out.line(format!(
            "{:<10} {} {} {} {}",
            label,
            cycles_cell(hip),
            fail_cell(hip),
            cycles_cell(tms),
            fail_cell(tms)
        ));
    }

    out.header(
        "Ablation 2: gather-link miss policy (paper 3.2 design freedom (c))",
        "fail-on-miss trades reservation hold time for extra retries",
    );
    out.line(format!(
        "{:<14} {:>12} {:>10} {:>12} {:>10}",
        "policy", "HIP cyc", "HIP fail", "TMS cyc", "TMS fail"
    ));
    for (label, _) in POLICIES {
        let row = rows.next().expect("HIP+TMS per policy");
        let (hip, tms) = (&row[0], &row[1]);
        out.line(format!(
            "{:<14} {} {} {} {}",
            label,
            cycles_cell(hip),
            fail_cell(hip),
            cycles_cell(tms),
            fail_cell(tms)
        ));
    }

    out.header("Ablation 3: L1 stride prefetcher on/off (paper 4.1)", "");
    out.line(format!(
        "{:<10} {:>12} {:>12}",
        "prefetch", "HIP cyc", "TMS cyc"
    ));
    for on in [true, false] {
        let row = rows.next().expect("HIP+TMS per prefetch setting");
        let (hip, tms) = (&row[0], &row[1]);
        out.line(format!(
            "{:<10} {} {}",
            if on { "on" } else { "off" },
            cycles_cell(hip),
            cycles_cell(tms)
        ));
    }
    std::process::exit(finish_figure(out, &errors));
}
