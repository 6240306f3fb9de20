//! The fleet differential oracle (DESIGN.md §13): every job run through
//! the supervised [`Fleet`] — copy-on-write dataset bases, sliced
//! round-robin stepping — must produce a [`RunReport`] **bit-identical**
//! to the same job run solo through [`Machine::run`], for every kernel,
//! every Fig. 6 machine shape, the Ideal and Ring interconnects, and
//! under an active fault-injection plan.
//!
//! The fleet is deliberately configured with a small odd quantum and a
//! width below the job count, so every job crosses many slice boundaries
//! while other jobs step beside it — the machinery that could diverge
//! from the solo path.

use glsc_kernels::{build_named, Dataset, Variant, Workload, KERNEL_NAMES};
use glsc_sim::{
    ChaosStats, FaultPlan, Fleet, FleetJob, Machine, MachineConfig, NocConfig, PauseCtl, RunReport,
};

const CONFIGS: [(usize, usize); 4] = [(1, 1), (1, 4), (4, 1), (4, 4)];

/// Runs `w` solo on a fresh machine — the frozen baseline path.
fn solo(
    cfg: &MachineConfig,
    w: &Workload,
    plan: Option<FaultPlan>,
) -> (RunReport, Option<ChaosStats>) {
    let mut machine = Machine::new(cfg.clone());
    w.image.apply(machine.mem_mut().backing_mut());
    machine.load_program(w.program.clone());
    if let Some(p) = plan {
        machine.mem_mut().install_fault_plan(p);
    }
    let report = machine.run().expect("solo run must complete");
    let chaos = machine.mem().chaos_stats().cloned();
    (report, chaos)
}

/// Builds the full kernel × shape matrix under `noc`, runs it solo and
/// as one fleet, and asserts bit-identical reports (and chaos counters,
/// when a plan is installed).
fn differential(noc: NocConfig, plan_seed: Option<u64>, tag: &str) {
    let mut jobs: Vec<FleetJob> = Vec::new();
    let mut want: Vec<(String, RunReport, Option<ChaosStats>)> = Vec::new();
    for kernel in KERNEL_NAMES {
        for (cores, tpc) in CONFIGS {
            let mut cfg = MachineConfig::paper(cores, tpc, 4).with_noc(noc.clone());
            if plan_seed.is_some() {
                // Mirror the chaos harness: a bigger budget and a watchdog
                // so a divergence shows up as a structured failure.
                cfg = cfg
                    .with_max_cycles(2_000_000_000)
                    .with_watchdog_window(Some(5_000_000));
            }
            let w = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
            let plan = plan_seed.map(FaultPlan::from_seed);
            let (report, chaos) = solo(&cfg, &w, plan.clone());
            let name = format!("{kernel} {cores}x{tpc} {tag}");
            want.push((name, report, chaos));
            let mut job = FleetJob::new(cfg, w.program.clone()).with_base(w.image.publish());
            if let Some(p) = plan {
                job = job.with_fault_plan(p);
            }
            jobs.push(job);
        }
    }

    // Width 3 over 28 jobs of four machine shapes: jobs of different
    // shapes step side by side; quantum 1777 forces thousands of slice
    // crossings.
    let fleet = Fleet::new().with_width(3).with_quantum(1777);
    let mut got: Vec<Option<(RunReport, Option<ChaosStats>)>> =
        (0..jobs.len()).map(|_| None).collect();
    let done = fleet.run_each_supervised(
        jobs,
        |_, _| PauseCtl::Continue,
        |idx, machine, result| {
            let report =
                result.unwrap_or_else(|e| panic!("{}: fleet run failed: {e}", want[idx].0));
            got[idx] = Some((report, machine.mem().chaos_stats().cloned()));
        },
    );
    assert!(done, "{tag}: the fleet stopped before every job ran");

    for (idx, (name, want_report, want_chaos)) in want.iter().enumerate() {
        let (got_report, got_chaos) = got[idx].as_ref().expect("every job reported");
        assert_eq!(
            got_report, want_report,
            "{name}: fleet report diverged from solo"
        );
        assert_eq!(
            got_chaos, want_chaos,
            "{name}: chaos counters diverged from solo"
        );
    }
    if plan_seed.is_some() {
        let injected: u64 = want
            .iter()
            .map(|(_, _, c)| c.as_ref().map_or(0, ChaosStats::total_faults))
            .sum();
        assert!(injected > 0, "the chaos plan must actually fire");
    }
}

#[test]
fn fleet_matches_solo_every_kernel_every_shape_ideal() {
    differential(NocConfig::ideal(), None, "ideal");
}

#[test]
fn fleet_matches_solo_under_ring_interconnect() {
    differential(NocConfig::ring(), None, "ring");
}

#[test]
fn fleet_matches_solo_under_fault_injection() {
    differential(NocConfig::ideal(), Some(29), "chaos");
}
