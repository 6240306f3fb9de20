//! Forward-progress watchdog, typed config rejection, periodic invariant
//! checking, and §3.3 reservation-buffer behaviour under chaos pressure
//! (DESIGN.md §9).

use glsc_isa::{Program, ProgramBuilder, Reg};
use glsc_sim::{ChaosConfig, ConfigError, FaultPlan, Machine, MachineConfig, SimError};

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// All threads atomically increment one shared counter `iters` times using
/// the scalar ll/sc loop of Fig. 2.
fn llsc_counter_program(iters: i64, counter: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let (base, i, tmp, ok) = (r(2), r(3), r(4), r(5));
    b.li(base, counter);
    b.li(i, 0);
    let top = b.here();
    b.sync_on();
    let retry = b.here();
    b.ll(tmp, base, 0);
    b.addi(tmp, tmp, 1);
    b.sc(ok, tmp, base, 0);
    b.beq(ok, 0, retry);
    b.sync_off();
    b.addi(i, i, 1);
    b.blt(i, iters, top);
    b.halt();
    b.build().unwrap()
}

/// A thread that acquires a reservation and then blocks on the result of
/// the ll. With a pathologically slow DRAM the machine issues nothing for
/// the whole wait — the shape of a livelock from the watchdog's view.
fn blocking_ll_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.li(r(2), 0x1000);
    b.ll(r(3), r(2), 0);
    b.add(r(4), r(3), 1); // stall-on-use: no further issue until the fill
    b.halt();
    b.build().unwrap()
}

#[test]
fn watchdog_reports_livelock_with_full_dump() {
    let mut cfg = MachineConfig::paper(1, 1, 1).with_watchdog_window(Some(1_000));
    cfg.mem.dram_latency = 10_000_000; // far beyond the watchdog window
    let mut machine = Machine::new(cfg);
    machine.load_program(blocking_ll_program());
    match machine.run() {
        Err(SimError::Livelock {
            cycle,
            window,
            stuck,
            reservations,
            ..
        }) => {
            assert_eq!(window, 1_000);
            assert!(cycle >= 1_000);
            assert!(!stuck.is_empty(), "dump must name the stuck threads");
            assert_eq!(stuck[0].0, 0, "thread 0 is stuck");
            assert!(
                reservations.contains(&(0, 0x1000, 1)),
                "the ll's reservation must appear in the dump: {reservations:x?}"
            );
        }
        other => panic!("expected livelock, got {other:?}"),
    }
}

#[test]
fn livelock_identical_between_run_and_run_naive() {
    let build = || {
        let mut cfg = MachineConfig::paper(1, 1, 1).with_watchdog_window(Some(500));
        cfg.mem.dram_latency = 10_000_000;
        let mut m = Machine::new(cfg);
        m.load_program(blocking_ll_program());
        m
    };
    let fast = build().run().unwrap_err();
    let naive = build().run_naive().unwrap_err();
    assert_eq!(fast, naive, "watchdog must not depend on fast-forwarding");
    let msg = fast.to_string();
    assert!(msg.contains("livelock"), "display names the failure: {msg}");
    assert!(msg.contains("stall totals"), "display has stalls: {msg}");
}

/// The cycle budget, like the watchdog, must fire on the same cycle with
/// the same stall totals whether the machine single-steps or sleeps
/// through the wait: the budget here runs out in the middle of the fill.
#[test]
fn cycle_budget_identical_between_run_and_run_naive() {
    let build = || {
        let mut cfg = MachineConfig::paper(2, 2, 1)
            .with_watchdog_window(None)
            .with_max_cycles(5_000);
        cfg.mem.dram_latency = 10_000_000;
        let mut m = Machine::new(cfg);
        m.load_program(blocking_ll_program());
        m
    };
    let fast = build().run().unwrap_err();
    let naive = build().run_naive().unwrap_err();
    assert!(
        matches!(naive, SimError::MaxCyclesExceeded { cycle: 5_000, .. }),
        "{naive:?}"
    );
    assert_eq!(fast, naive, "cycle budget must not depend on sleeping");
}

#[test]
fn watchdog_disabled_falls_through_to_cycle_budget() {
    let mut cfg = MachineConfig::paper(1, 1, 1)
        .with_watchdog_window(None)
        .with_max_cycles(5_000);
    cfg.mem.dram_latency = 10_000_000;
    let mut machine = Machine::new(cfg);
    machine.load_program(blocking_ll_program());
    match machine.run() {
        Err(SimError::MaxCyclesExceeded { cycle, stuck, .. }) => {
            assert!(cycle >= 5_000);
            assert!(!stuck.is_empty());
        }
        other => panic!("expected cycle-budget error, got {other:?}"),
    }
}

#[test]
fn watchdog_tolerates_legitimate_memory_waits() {
    // Default DRAM latency (280) is far below a even a small window: a
    // normal run must never trip the watchdog.
    let cfg = MachineConfig::paper(2, 2, 1).with_watchdog_window(Some(10_000));
    let mut machine = Machine::new(cfg);
    machine.load_program(llsc_counter_program(25, 0x4000));
    machine.run().unwrap();
    assert_eq!(machine.mem().backing().read_u32(0x4000), 4 * 25);
}

#[test]
fn max_cycles_display_includes_stall_totals() {
    let mut b = ProgramBuilder::new();
    let top = b.here();
    b.jmp(top);
    let cfg = MachineConfig::paper(1, 1, 1).with_max_cycles(1_000);
    let mut machine = Machine::new(cfg);
    machine.load_program(b.build().unwrap());
    let err = machine.run().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("stall totals"), "got: {msg}");
}

#[test]
fn periodic_invariant_checks_pass_on_clean_and_chaotic_runs() {
    for chaos in [None, Some(ChaosConfig::aggressive(3))] {
        let cfg = MachineConfig::paper(2, 2, 1)
            .with_invariant_checks(Some(64))
            .with_max_cycles(50_000_000);
        let mut machine = Machine::new(cfg);
        if let Some(c) = chaos.clone() {
            machine.mem_mut().install_fault_plan(FaultPlan::new(c));
        }
        machine.load_program(llsc_counter_program(25, 0x4000));
        machine
            .run()
            .unwrap_or_else(|e| panic!("chaos={}: {e}", chaos.is_some()));
        assert_eq!(machine.mem().backing().read_u32(0x4000), 4 * 25);
        machine.mem().check_invariants();
    }
}

#[test]
fn buffer_evictions_under_chaos_pressure_retry_to_completion() {
    // §3.3 reservation-buffer mode under forced overflow pressure: sc
    // failures must be retried until every increment lands, and the
    // buffer-eviction counter must grow. Seeds printed on failure, per
    // the glsc-rng convention.
    let increments = 4 * 25;
    for seed in [5u64, 6, 7, 8, 9] {
        let mut cfg = MachineConfig::paper(2, 2, 1).with_max_cycles(50_000_000);
        cfg.mem.glsc_buffer_entries = Some(2);
        let mut machine = Machine::new(cfg);
        machine
            .mem_mut()
            .install_fault_plan(FaultPlan::new(ChaosConfig {
                buffer_pressure_prob: 0.5,
                ..ChaosConfig::from_seed(seed)
            }));
        machine.load_program(llsc_counter_program(25, 0x4000));
        let report = machine.run().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            machine.mem().backing().read_u32(0x4000),
            increments,
            "seed {seed}: every increment must land exactly once"
        );
        assert!(
            machine.mem().reservation_buffer_evictions() > 0,
            "seed {seed}: pressure must evict buffered reservations"
        );
        let stats = machine.mem().chaos_stats().unwrap().clone();
        assert!(
            stats.forced_buffer_evictions > 0,
            "seed {seed}: forced evictions must be counted"
        );
        assert!(
            report.lsu.scs > u64::from(increments),
            "seed {seed}: killed reservations must show up as sc retries"
        );
    }
}

#[test]
fn try_new_rejects_bad_configs() {
    let cfg = MachineConfig::paper(1, 1, 4);
    assert!(Machine::try_new(cfg.clone()).is_ok());

    let mut bad = cfg.clone();
    bad.cores = 0;
    match Machine::try_new(bad) {
        Err(SimError::InvalidConfig(ConfigError::CoresOutOfRange { cores: 0 })) => {}
        other => panic!("expected cores rejection, got {other:?}"),
    }

    let mut bad = cfg.clone();
    bad.simd_width = 1000;
    match Machine::try_new(bad) {
        Err(SimError::InvalidConfig(ConfigError::SimdWidthOutOfRange { simd_width: 1000 })) => {}
        other => panic!("expected width rejection, got {other:?}"),
    }

    let mut bad = cfg.clone();
    bad.mem.line_bytes = 48;
    match Machine::try_new(bad) {
        Err(SimError::InvalidConfig(ConfigError::Mem(
            glsc_mem::ConfigError::LineBytesNotPowerOfTwo { line_bytes: 48 },
        ))) => {}
        other => panic!("expected mem rejection, got {other:?}"),
    }

    // Twelve banks of 2,048 sets: banks are picked by a mask, so the
    // count must be a power of two.
    let mut bad = cfg;
    bad.mem.l2_banks = 12;
    bad.mem.l2_bytes = 12 << 20;
    match Machine::try_new(bad) {
        Err(SimError::InvalidConfig(ConfigError::Mem(
            glsc_mem::ConfigError::GeometryNotPowerOfTwo {
                what: "L2 banks",
                count: 12,
            },
        ))) => {}
        other => panic!("expected geometry rejection, got {other:?}"),
    }
}

#[test]
fn invariant_violation_error_is_descriptive() {
    let err = SimError::InvariantViolation {
        cycle: 42,
        violation: glsc_mem::InvariantViolation::Inclusion {
            core: 1,
            line: 0x1040,
        },
    };
    let msg = err.to_string();
    assert!(msg.contains("cycle 42"), "got: {msg}");
    assert!(msg.contains("0x1040"), "got: {msg}");
    assert!(msg.contains("inclusion"), "got: {msg}");
}
