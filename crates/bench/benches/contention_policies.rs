//! Contention-policy study: how reservation arbitration bends tail
//! behavior on a deliberately evil microbenchmark.
//!
//! The paper's GLSC design (§3.2) inherits ll/sc's free-for-all under
//! contention: whichever thread's store-conditional lands first wins,
//! forever. This figure pits the three arbitration policies against the
//! scenario-A microbenchmark with its shared array squeezed to a 4-line
//! hot set, sweeping machine shape and the hardware-backoff program
//! variant, and reports throughput (cycles), retry pressure (total SC
//! attempts, failure rate), the worst per-thread consecutive-failure run,
//! and Jain's fairness index over per-thread SC retries. A second table
//! widens the hot set to 8 lines and squeezes the §3.3 reservation
//! buffer to 4 entries — one vector op's links still fit, but the
//! threads sharing an L1 evict each other — to surface capacity
//! evictions under each policy. (A buffer smaller than a single op's
//! line span livelocks outright: the op's own gather evicts its own
//! links, deterministically, forever.)
//!
//! The workload is fully parameterized (no dataset dependence), so the
//! tiny smoke run and the committed full figure have identical content.
//! The jobs are one list run by `run_jobs_fleet`; they persist to the
//! job store and resume with `GLSC_BENCH_RESUME=1`. The table is written
//! to `results/contention_policies.txt`.

use glsc_bench::{
    bench_threads, collect_errors, finish_figure, run_jobs_fleet, FigureOutput, FleetJobSpec,
    JobStore,
};
use glsc_kernels::micro::{Micro, MicroParams, Scenario};
use glsc_kernels::Variant;
use glsc_sim::{ArbitrationPolicy, MachineConfig, RunReport};

const POLICIES: [ArbitrationPolicy; 3] = [
    ArbitrationPolicy::Free,
    ArbitrationPolicy::NackHoldoff { window: 64 },
    ArbitrationPolicy::AgedPriority,
];
const SHAPES: [(usize, usize); 3] = [(1, 4), (2, 4), (4, 4)];

/// Scenario A with the shared array squeezed to a hot set of
/// `shared_lines` lines: every hardware thread fights over every line,
/// every iteration.
fn hot_micro(shared_lines: usize) -> Micro {
    Micro::with_params(
        Scenario::A,
        MicroParams {
            iters: 40,
            private_lines: 8,
            shared_lines,
            seed: 72,
        },
    )
}

fn config(policy: ArbitrationPolicy, cores: usize, tpc: usize, squeeze: bool) -> MachineConfig {
    let mut cfg = MachineConfig::paper(cores, tpc, 4).with_arbitration(policy);
    if squeeze {
        cfg.mem.glsc_buffer_entries = Some(4);
    }
    cfg
}

fn attempts(r: &RunReport) -> u64 {
    r.mem.sc_threads.iter().map(|t| t.attempts).sum()
}

fn main() {
    let store = JobStore::for_bench("contention_policies");
    let mut out = FigureOutput::new("contention_policies");
    out.header(
        "Contention management: arbitration policies on the hot-set micro",
        "scenario A, 4-line shared hot set, 40 iters/thread, GLSC, 4-wide SIMD;\n\
         bo = hardware-backoff program variant; fail% = SC failures / attempts",
    );

    // (policy, backoff, shape, squeeze-buffer)
    let mut params = Vec::new();
    for &policy in &POLICIES {
        for bo in [false, true] {
            for shape in SHAPES {
                params.push((policy, bo, shape, false));
            }
        }
    }
    for &policy in &POLICIES {
        params.push((policy, false, (4, 4), true));
    }

    let jobs = params
        .iter()
        .map(|&(policy, bo, (cores, tpc), squeeze)| {
            let cfg = config(policy, cores, tpc, squeeze);
            let lines = if squeeze { 8 } else { 4 };
            let m = if bo {
                hot_micro(lines).with_backoff()
            } else {
                hot_micro(lines)
            };
            FleetJobSpec {
                key_parts: vec![
                    "contention".to_string(),
                    format!(
                        "{}{}/{cores}x{tpc}{}",
                        policy.label(),
                        if bo { "+bo" } else { "" },
                        if squeeze { "/8l-buf4" } else { "" }
                    ),
                ],
                workload: m.build(Variant::Glsc, &cfg),
                cfg,
            }
        })
        .collect();
    let results = run_jobs_fleet(&store, jobs, bench_threads());
    let errors = collect_errors(&results);
    let reports: std::collections::HashMap<_, _> = params
        .iter()
        .zip(&results)
        .map(|(&(policy, bo, shape, squeeze), r)| {
            let key = (policy.label(), bo, shape, squeeze);
            (
                key,
                r.as_ref()
                    .map(|out| out.report.clone())
                    .map_err(|e| e.cell()),
            )
        })
        .collect();

    out.line(format!(
        "{:<6} {:>3} {:>5} {:>8} {:>9} {:>6} {:>10} {:>7}",
        "policy", "bo", "shape", "cycles", "attempts", "fail%", "maxstreak", "jain"
    ));
    for &policy in &POLICIES {
        for bo in [false, true] {
            for (cores, tpc) in SHAPES {
                let key = (policy.label(), bo, (cores, tpc), false);
                match &reports[&key] {
                    Ok(r) => {
                        let att = attempts(r);
                        let fails: u64 = r.mem.sc_threads.iter().map(|t| t.failures).sum();
                        let failpct = if att == 0 {
                            0.0
                        } else {
                            100.0 * fails as f64 / att as f64
                        };
                        out.line(format!(
                            "{:<6} {:>3} {:>5} {:>8} {:>9} {:>6.1} {:>10} {:>7.4}",
                            policy.label(),
                            if bo { "on" } else { "off" },
                            format!("{cores}x{tpc}"),
                            r.cycles,
                            att,
                            failpct,
                            r.max_sc_failure_streak(),
                            r.sc_retry_fairness()
                        ));
                    }
                    Err(cell) => out.line(format!(
                        "{:<6} {:>3} {:>5} {:>8}",
                        policy.label(),
                        if bo { "on" } else { "off" },
                        format!("{cores}x{tpc}"),
                        cell
                    )),
                }
            }
        }
    }

    out.blank();
    out.line("reservation-buffer pressure at 4x4: 4-entry buffer vs an 8-line hot set");
    out.line(format!(
        "{:<6} {:>8} {:>10} {:>10}",
        "policy", "cycles", "evictions", "maxstreak"
    ));
    for &policy in &POLICIES {
        let key = (policy.label(), false, (4, 4), true);
        match &reports[&key] {
            Ok(r) => out.line(format!(
                "{:<6} {:>8} {:>10} {:>10}",
                policy.label(),
                r.cycles,
                r.mem.reservation_buffer_evictions,
                r.max_sc_failure_streak()
            )),
            Err(cell) => out.line(format!("{:<6} {:>8}", policy.label(), cell)),
        }
    }

    out.blank();
    let jain = |policy: ArbitrationPolicy| {
        reports[&(policy.label(), false, (4, 4), false)]
            .as_ref()
            .ok()
            .map(|r| r.sc_retry_fairness())
    };
    if let (Some(free), Some(nack), Some(aged)) =
        (jain(POLICIES[0]), jain(POLICIES[1]), jain(POLICIES[2]))
    {
        out.line(format!(
            "fairness (Jain) at 4x4, tight loop: free {free:.4}, nack {nack:.4}, aged {aged:.4} \
             -- aged >= free: {}",
            if aged >= free { "yes" } else { "NO" }
        ));
        assert!(
            aged >= free,
            "AgedPriority must never be less fair than Free ({aged:.4} < {free:.4})"
        );
    }
    std::process::exit(finish_figure(out, &errors));
}
