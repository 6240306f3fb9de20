//! Clone differential oracle on the real workloads: a `Machine::clone`
//! taken mid-run is an independent machine that continues bit-identically.
//! For every kernel and every Fig. 6 machine shape, running to completion
//! in one shot must give the same `RunReport` and validated final memory
//! as stepping halfway, cloning, and finishing the clone; the original
//! must then finish the same way too. Also covers the naive
//! (single-stepped) loop, an active fault plan (whose RNG state the clone
//! copies), a Ring fabric with messages in flight, every arbitration
//! policy, non-empty write buffers under every memory order, and clones
//! taken between `run_for` slices. In this file a "snapshot" is such a
//! clone and "resuming" is running it on; the litmus explorer branches
//! schedules the same way.

use glsc::kernels::{build_named, Dataset, Variant, Workload, KERNEL_NAMES};
use glsc::sim::{ChaosConfig, FaultPlan, Machine, MachineConfig, NocConfig, RunReport, SlicedRun};

const SHAPES: [(usize, usize); 4] = [(1, 1), (1, 4), (4, 1), (4, 4)];

fn machine_for(w: &Workload, cfg: &MachineConfig, chaos: Option<u64>) -> Machine {
    let mut m = Machine::new(cfg.clone());
    if let Some(seed) = chaos {
        m.mem_mut()
            .install_fault_plan(FaultPlan::new(ChaosConfig::from_seed(seed)));
    }
    w.image.apply(m.mem_mut().backing_mut());
    m.load_program(w.program.clone());
    m
}

/// One-shot baseline, then a machine stepped to half the baseline's
/// cycles and cloned there. The clone runs first, so any state it shared
/// with the original would show when the original runs after it. Asserts
/// that both finish with the baseline's report and that both memories
/// pass the kernel's golden validator.
fn assert_clone_continues(
    kernel: &str,
    w: &Workload,
    cfg: &MachineConfig,
    chaos: Option<u64>,
    naive: bool,
) -> RunReport {
    let run = |m: &mut Machine| {
        if naive { m.run_naive() } else { m.run() }.unwrap_or_else(|e| panic!("{kernel}: {e}"))
    };
    let what = format!(
        "{kernel} {}x{} chaos={chaos:?} naive={naive}",
        cfg.cores, cfg.threads_per_core
    );
    let baseline = run(&mut machine_for(w, cfg, chaos));

    let mut original = machine_for(w, cfg, chaos);
    for _ in 0..baseline.cycles / 2 {
        assert!(!original.step(), "{what}: halted before the clone point");
    }
    let mut clone = original.clone();
    assert_eq!(run(&mut clone), baseline, "{what}: the clone diverged");
    (w.validate)(clone.mem().backing())
        .unwrap_or_else(|e| panic!("{what}: the clone failed validation: {e}"));

    assert_eq!(
        run(&mut original),
        baseline,
        "{what}: the original diverged after cloning"
    );
    (w.validate)(original.mem().backing())
        .unwrap_or_else(|e| panic!("{what}: the original failed validation: {e}"));
    baseline
}

#[test]
fn snapshot_resume_matches_uninterrupted_all_kernels() {
    for kernel in KERNEL_NAMES {
        for (cores, tpc) in SHAPES {
            for variant in [Variant::Base, Variant::Glsc] {
                let cfg = MachineConfig::paper(cores, tpc, 4);
                let w = build_named(kernel, Dataset::Tiny, variant, &cfg).expect("known kernel");
                assert_clone_continues(kernel, &w, &cfg, None, false);
            }
        }
    }
}

#[test]
fn snapshot_resume_matches_under_chaos() {
    // An active FaultPlan makes the continuation sensitive to RNG state:
    // the clone must copy it, or it replays a different fault sequence
    // and the timing diverges. Watchdog + generous budget as in the chaos
    // bench harness.
    for kernel in KERNEL_NAMES {
        for (cores, tpc) in [(2, 2), (4, 4)] {
            let cfg = MachineConfig::paper(cores, tpc, 4)
                .with_max_cycles(2_000_000_000)
                .with_watchdog_window(Some(5_000_000));
            let w = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
            assert_clone_continues(kernel, &w, &cfg, Some(0x5EED), false);
        }
    }
}

#[test]
fn snapshot_resume_matches_with_in_flight_noc_messages() {
    // On a contended ring fabric the clone point lands mid-burst: link
    // busy horizons hold in-flight reservations and (under chaos) the NoC
    // may carry pending link-delay jitter. The clone must copy all of it,
    // in both the fast-forward and naive loops.
    for kernel in ["HIP", "TMS", "GBC"] {
        let cfg = MachineConfig::paper(4, 4, 4)
            .with_noc(NocConfig::ring())
            .with_max_cycles(2_000_000_000)
            .with_watchdog_window(Some(5_000_000));
        let w = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
        let fault_free = assert_clone_continues(kernel, &w, &cfg, None, false);
        assert!(
            fault_free.mem.noc.queue_cycles > 0,
            "{kernel}: ring run showed no fabric contention, clone point is trivial"
        );
        assert_clone_continues(kernel, &w, &cfg, Some(0x0C5EED), false);
        assert_clone_continues(kernel, &w, &cfg, Some(0x5EED), true);
    }
}

#[test]
fn snapshot_resume_matches_under_every_arbitration_policy() {
    // The arbiter (NACK holdoff windows / age streak book) lives in the
    // MemorySystem and the clone must copy it: continuing mid-window or
    // mid-streak with a blank arbiter would change who wins the next SC.
    // The contended micro keeps the arbiter busy at the halfway point, so
    // this drill is non-vacuous — asserted below.
    use glsc::kernels::micro::{Micro, MicroParams, Scenario};
    use glsc::sim::ArbitrationPolicy;
    let hot = Micro::with_params(
        Scenario::A,
        MicroParams {
            iters: 40,
            private_lines: 8,
            shared_lines: 4,
            seed: 72,
        },
    );
    for policy in [
        ArbitrationPolicy::NackHoldoff { window: 64 },
        ArbitrationPolicy::AgedPriority,
    ] {
        let cfg = MachineConfig::paper(4, 4, 4)
            .with_arbitration(policy)
            .with_max_cycles(2_000_000_000)
            .with_watchdog_window(Some(5_000_000));
        let w = hot.clone().build(Variant::Glsc, &cfg);

        let mut probe = machine_for(&w, &cfg, None);
        let baseline = probe.run().unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        let mut halfway = machine_for(&w, &cfg, None);
        for _ in 0..baseline.cycles / 2 {
            assert!(!halfway.step(), "{policy:?}: halted before halfway");
        }
        assert!(
            !halfway.mem().arbiter().is_idle(),
            "{policy:?}: arbiter idle at the clone point, drill is vacuous"
        );

        assert_clone_continues(&w.name, &w, &cfg, None, false);
        assert_clone_continues(&w.name, &w, &cfg, Some(0x5EED), false);
        assert_clone_continues(&w.name, &w, &cfg, None, true);
    }
}

#[test]
fn snapshot_resume_matches_naive_loop() {
    // A clone continued by the naive single-stepped loop must finish
    // identically as well: cloning cannot depend on the fast-forward
    // path.
    for kernel in ["HIP", "TMS", "GBC"] {
        let cfg = MachineConfig::paper(2, 2, 4);
        let w = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
        let naive = assert_clone_continues(kernel, &w, &cfg, None, true);
        let fast = assert_clone_continues(kernel, &w, &cfg, None, false);
        assert_eq!(naive, fast, "{kernel}: naive and fast reports differ");
    }
}

/// SPMD store-burst micro for the write-buffer drill: each thread
/// streams two bursts of 32 scalar stores into its private window at
/// `0x8000 + gid*0x400`, with a release fence between the bursts and a
/// full fence before halting, so a mid-run clone reliably lands while
/// per-thread write buffers are non-empty and a drain is pending.
fn store_burst_program() -> glsc::isa::Program {
    use glsc::isa::{ProgramBuilder, Reg};
    let r = Reg::new;
    let mut b = ProgramBuilder::new();
    b.shl(r(1), r(0), 10); // r1 = gid << 10 (r0 holds gid at reset)
    b.addi(r(1), r(1), 0x8000);
    b.li(r(2), 0);
    for bound in [32i64, 64] {
        let burst = b.here();
        b.add(r(3), r(2), r(0)); // value = i + gid
        b.shl(r(4), r(2), 2);
        b.add(r(4), r(4), r(1));
        b.st(r(3), r(4), 0);
        b.addi(r(2), r(2), 1);
        b.blt(r(2), bound, burst);
        if bound == 32 {
            b.fence_rel();
        } else {
            b.fence();
        }
    }
    b.halt();
    b.build().expect("valid store-burst program")
}

#[test]
fn snapshot_with_nonempty_write_buffers_resumes_bit_identical() {
    // Under the relaxed models the clone must copy each thread's write
    // buffer (pending stores, drain timing, fence state). Instead of
    // cloning blindly at half the cycle count, step until some thread
    // actually holds buffered stores (asserting the drill is non-vacuous)
    // and clone there.
    use glsc::sim::MemoryOrder;
    let program = store_burst_program();
    for order in [MemoryOrder::Tso, MemoryOrder::RelaxedFence] {
        for chaos in [None, Some(0x5EED_u64)] {
            let cfg = MachineConfig::paper(2, 2, 4)
                .with_memory_order(order)
                .with_max_cycles(2_000_000_000)
                .with_watchdog_window(Some(5_000_000));
            let gids = cfg.total_threads();
            let fresh = || {
                let mut m = Machine::new(cfg.clone());
                if let Some(seed) = chaos {
                    m.mem_mut()
                        .install_fault_plan(FaultPlan::new(ChaosConfig::from_seed(seed)));
                }
                m.load_program(program.clone());
                m
            };
            let validate = |m: &Machine| {
                for gid in 0..gids as u64 {
                    for i in 0..64u64 {
                        let addr = 0x8000 + gid * 0x400 + i * 4;
                        assert_eq!(
                            m.mem().backing().read_u32(addr),
                            (gid + i) as u32,
                            "{order} chaos={chaos:?}: thread {gid} word {i} wrong"
                        );
                    }
                }
            };

            let mut baseline_m = fresh();
            let baseline = baseline_m
                .run()
                .unwrap_or_else(|e| panic!("{order} chaos={chaos:?}: {e}"));
            validate(&baseline_m);

            let mut interrupted = fresh();
            while (0..gids).all(|g| interrupted.buffered_stores(g) == 0) {
                assert!(
                    !interrupted.step(),
                    "{order} chaos={chaos:?}: halted before any store was buffered"
                );
            }
            let mut clone = interrupted.clone();
            let resumed = clone
                .run()
                .unwrap_or_else(|e| panic!("{order} chaos={chaos:?}: clone: {e}"));
            assert_eq!(
                resumed, baseline,
                "{order} chaos={chaos:?}: clone taken mid-drain diverged"
            );
            validate(&clone);

            let finished = interrupted
                .run()
                .unwrap_or_else(|e| panic!("{order} chaos={chaos:?}: continue: {e}"));
            assert_eq!(
                finished, baseline,
                "{order} chaos={chaos:?}: interrupted run diverged"
            );
            validate(&interrupted);
        }
    }
}

#[test]
fn snapshot_resume_matches_under_relaxed_models_on_kernels() {
    // The existing kernel differential, under TSO and RelaxedFence: the
    // GLSC variants store through the GSU scatter path, so this pins the
    // model plumbing (fence handling, drain scheduling) rather than
    // write-buffer contents — the micro above covers those.
    use glsc::sim::MemoryOrder;
    for kernel in ["HIP", "TMS"] {
        for order in [MemoryOrder::Tso, MemoryOrder::RelaxedFence] {
            let cfg = MachineConfig::paper(2, 2, 4)
                .with_memory_order(order)
                .with_max_cycles(2_000_000_000)
                .with_watchdog_window(Some(5_000_000));
            let w = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
            assert_clone_continues(kernel, &w, &cfg, None, false);
            assert_clone_continues(kernel, &w, &cfg, Some(0x5EED), false);
        }
    }
}

#[test]
fn clones_between_slices_match_solo_run() {
    // A sliced loop in miniature: advance in fixed cycle budgets via
    // `run_for`, and at every pause continue on a clone of the machine
    // and of its `SlicedRun`, dropping the original. The final report
    // must match an uninterrupted run.
    for kernel in ["HIP", "TMS", "GBC"] {
        let cfg = MachineConfig::paper(2, 2, 4);
        let w = build_named(kernel, Dataset::Tiny, Variant::Glsc, &cfg).expect("known kernel");
        let baseline = machine_for(&w, &cfg, None)
            .run()
            .unwrap_or_else(|e| panic!("{kernel}: {e}"));

        let mut m = machine_for(&w, &cfg, None);
        let mut run = SlicedRun::new(&m);
        let mut clones = 0u32;
        let report = loop {
            match m
                .run_for(&mut run, 500)
                .unwrap_or_else(|e| panic!("{kernel}: {e}"))
            {
                Some(report) => break report,
                None => {
                    (m, run) = (m.clone(), run.clone());
                    clones += 1;
                }
            }
        };
        assert!(clones > 2, "{kernel}: budget too large, loop vacuous");
        assert_eq!(report, baseline, "{kernel}: cloned slices diverged");
        (w.validate)(m.mem().backing())
            .unwrap_or_else(|e| panic!("{kernel}: cloned slices failed validation: {e}"));
    }
}
