//! Injected faults must reach the pipeline through the normal completion
//! path (DESIGN.md §9): the LSU neither hides DRAM jitter nor masks a
//! destroyed reservation — completions simply carry the perturbed `done`
//! cycle and the failed `sc_ok`.

use glsc_core::{Lsu, LsuAction, LsuCompletion, LsuEntry};
use glsc_mem::{ChaosConfig, FaultPlan, MemConfig, MemOp, MemorySystem};

const CLEAN_COLD_MISS: u64 = 3 + 12 + 280; // l1 probe + l2 + dram

fn mem() -> MemorySystem {
    let cfg = MemConfig {
        prefetch: false,
        ..MemConfig::default()
    };
    MemorySystem::new(cfg, 1, 4)
}

fn jitter_only(seed: u64, max: u64) -> FaultPlan {
    FaultPlan::new(ChaosConfig {
        period: 1,
        clear_line_prob: 0.0,
        flush_core_prob: 0.0,
        evict_line_prob: 0.0,
        dram_jitter_prob: 1.0,
        dram_jitter_max: max,
        buffer_pressure_prob: 0.0,
        ..ChaosConfig::from_seed(seed)
    })
}

fn load_completion(lsu: &mut Lsu, mem: &mut MemorySystem, addr: u64, now: u64) -> u64 {
    lsu.push(
        LsuEntry {
            tid: 0,
            addr,
            action: LsuAction::LoadTo { rd: 3 },
        },
        0,
    );
    match lsu.tick(0, mem, now) {
        Some(LsuCompletion::ScalarLoad { done, .. }) => done,
        other => panic!("expected a scalar-load completion, got {other:?}"),
    }
}

#[test]
fn lsu_completion_carries_dram_jitter() {
    // Baseline: no fault plan, cold miss completes at the documented
    // latency sum.
    let mut m = mem();
    let mut lsu = Lsu::new(4);
    assert_eq!(
        load_completion(&mut lsu, &mut m, 0x1000, 0),
        CLEAN_COLD_MISS
    );

    // With jitter on every access the same cold miss completes strictly
    // later, bounded by dram_jitter_max, and the delay is visible to the
    // pipeline through the completion's `done` field.
    let mut m = mem();
    m.install_fault_plan(jitter_only(17, 32));
    let mut lsu = Lsu::new(4);
    let done = load_completion(&mut lsu, &mut m, 0x1000, 0);
    assert!(done > CLEAN_COLD_MISS, "jitter must delay the completion");
    assert!(done <= CLEAN_COLD_MISS + 32, "jitter is bounded");
    assert!(m.chaos_stats().unwrap().jitter_events > 0);
}

#[test]
fn lsu_sc_completion_reports_chaos_killed_reservation() {
    let mut m = mem();
    let mut lsu = Lsu::new(4);

    // Acquire a reservation through the LSU.
    lsu.push(
        LsuEntry {
            tid: 0,
            addr: 0x1000,
            action: LsuAction::LlTo { rd: 3 },
        },
        0,
    );
    let t = match lsu.tick(0, &mut m, 0) {
        Some(LsuCompletion::ScalarLoad { done, .. }) => done,
        other => panic!("expected the ll completion, got {other:?}"),
    };
    assert!(m.holds_reservation(0, 0, 0x1000));

    // A chaos plan that clears reservations on every access fires on an
    // unrelated load...
    m.install_fault_plan(FaultPlan::new(ChaosConfig {
        period: 1,
        clear_line_prob: 1.0,
        flush_core_prob: 0.0,
        evict_line_prob: 0.0,
        dram_jitter_prob: 0.0,
        buffer_pressure_prob: 0.0,
        ..ChaosConfig::from_seed(17)
    }));
    let _ = m.access(0, 1, MemOp::Load, 0x2000, t);

    // ...and the subsequent sc through the LSU must report failure so the
    // pipeline's retry loop re-executes.
    lsu.push(
        LsuEntry {
            tid: 0,
            addr: 0x1000,
            action: LsuAction::ScVal { rd: 5, value: 7 },
        },
        0,
    );
    match lsu.tick(0, &mut m, t + 400) {
        Some(LsuCompletion::ScalarSc { ok, .. }) => {
            assert!(!ok, "sc over a chaos-killed reservation must fail");
        }
        other => panic!("expected the sc completion, got {other:?}"),
    }
    assert_eq!(lsu.stats().scs, 1);
    assert_eq!(lsu.stats().sc_successes, 0);
    assert_eq!(m.backing().read_u32(0x1000), 0, "the store must not land");
}
