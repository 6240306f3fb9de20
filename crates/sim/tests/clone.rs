//! Cloning at the machine level: a `Machine::clone` taken mid-run —
//! including cycles with in-flight GSU operations and live GLSC
//! reservations — is an independent machine that finishes with a
//! `RunReport` and final memory bit-identical to the uninterrupted run,
//! while the original finishes the same way. The litmus explorer relies
//! on this to branch schedules.

use glsc_isa::{MReg, Program, ProgramBuilder, Reg, VReg};
use glsc_sim::{ChaosConfig, FaultPlan, Machine, MachineConfig};

fn r(i: u8) -> Reg {
    Reg::new(i)
}

const COUNTER: i64 = 0x4000;
const INPUT: i64 = 0x1_0000;
const PIXELS: i64 = 64;
const BINS: i64 = 7;

/// Scalar ll/sc increment loop (Fig. 2), run by every hardware thread.
fn llsc_counter_program(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let (base, i, tmp, ok) = (r(2), r(3), r(4), r(5));
    b.li(base, COUNTER);
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

/// Straight-line vector-memory program: loads, gathers, a gather-link /
/// scatter-cond pair, and a store keep the GSU busy with multi-cycle
/// vector operations so mid-run clones catch in-flight element state and
/// live reservations.
fn vector_memory_program() -> Program {
    let mut b = ProgramBuilder::new();
    let base = r(2);
    let (vpix, vidx, vval) = (VReg::new(0), VReg::new(1), VReg::new(2));
    let (pending, got) = (MReg::new(0), MReg::new(1));
    b.li(base, INPUT);
    b.viota(vidx);
    b.vload(vpix, base, 0, None);
    b.vgather(vval, base, vidx, None);
    b.mall(pending);
    b.vgatherlink(got, vval, base, vidx, pending);
    b.valu(glsc_isa::AluOp::Add, vval, vval, 1, None);
    b.vscattercond(got, vval, base, vidx, pending);
    b.vstore(vpix, base, 256, None);
    b.halt();
    b.build().unwrap()
}

fn counter_machine(cores: usize, tpc: usize) -> Machine {
    let mut m = Machine::new(MachineConfig::paper(cores, tpc, 4));
    m.load_program(llsc_counter_program(40));
    m
}

/// Steps `n` cycles (or until halt) and returns whether the machine
/// halted.
fn step_n(m: &mut Machine, n: u64) -> bool {
    for _ in 0..n {
        if m.step() {
            return true;
        }
    }
    false
}

#[test]
fn clone_and_original_both_finish_bit_identical() {
    let baseline = counter_machine(2, 2).run().unwrap();

    let mut m = counter_machine(2, 2);
    let halted = step_n(&mut m, baseline.cycles / 2);
    assert!(!halted, "the clone point must be mid-run");
    let mut clone = m.clone();
    assert_eq!(clone.cycle(), baseline.cycles / 2);

    // Finish the original first...
    let first = m.run().unwrap();
    assert_eq!(first, baseline, "stepping then running must match run()");
    let mem_first = m.mem().backing().read_u32(COUNTER as u64);

    // ...then the clone, which the original's run must not have touched.
    assert_eq!(clone.cycle(), baseline.cycles / 2);
    let second = clone.run().unwrap();
    assert_eq!(second, baseline, "the clone diverged");
    assert_eq!(clone.mem().backing().read_u32(COUNTER as u64), mem_first);
}

#[test]
fn clone_outlives_its_original() {
    let baseline = counter_machine(4, 1).run().unwrap();

    let mut m = counter_machine(4, 1);
    assert!(!step_n(&mut m, baseline.cycles / 3));
    let mut clone = m.clone();
    drop(m);

    let resumed = clone.run().unwrap();
    assert_eq!(resumed, baseline, "the clone diverged");
    assert_eq!(
        clone.mem().backing().read_u32(COUNTER as u64),
        4 * 40,
        "counter must reach threads * iters"
    );
}

#[test]
fn clone_at_cycle_zero_and_after_halt() {
    // Cycle 0: a clone before the first step is a deep copy of the loaded
    // machine.
    let mut m = counter_machine(1, 2);
    let mut at_zero = m.clone();
    assert_eq!(at_zero.cycle(), 0);
    let baseline = m.run().unwrap();
    assert_eq!(at_zero.run().unwrap(), baseline);

    // Post-halt: the clone holds the terminal state, so its report is the
    // final report (running again would burn an extra idle cycle).
    let at_end = m.clone();
    assert_eq!(at_end.report(), baseline);
}

#[test]
fn run_naive_continues_a_clone_bit_identical_too() {
    let baseline = counter_machine(2, 1).run_naive().unwrap();

    let mut m = counter_machine(2, 1);
    assert!(!step_n(&mut m, baseline.cycles / 2));
    let mut clone = m.clone();
    assert_eq!(m.run_naive().unwrap(), baseline);
    assert_eq!(clone.run_naive().unwrap(), baseline);
}

#[test]
fn clone_with_inflight_vector_memory_ops() {
    // Clone at every cycle of a short vector-memory program: each clone
    // must finish with the same report, including cycles where the
    // GSU/LSU holds in-flight element state.
    let program = vector_memory_program();
    let build = || {
        let mut m = Machine::new(MachineConfig::paper(1, 1, 4));
        for p in 0..PIXELS as u64 {
            m.mem_mut()
                .backing_mut()
                .write_u32(INPUT as u64 + 4 * p, (p % BINS as u64) as u32);
        }
        m.load_program(program.clone());
        m
    };
    let baseline = build().run().unwrap();
    let mut m = build();
    for cut in 1..baseline.cycles {
        assert!(!m.step(), "cut {cut} past the end");
        let resumed = m.clone().run().unwrap();
        assert_eq!(resumed, baseline, "clone at cycle {cut} diverged");
    }
}

#[test]
fn clone_copies_the_chaos_plan_rng_state() {
    // With a fault plan installed the clone must replay the exact same
    // injection sequence: it copies the plan's RNG state, so the report
    // stays bit-identical.
    let build = || {
        let mut m = Machine::new(MachineConfig::paper(2, 2, 4));
        m.mem_mut()
            .install_fault_plan(FaultPlan::new(ChaosConfig::aggressive(7)));
        m.load_program(llsc_counter_program(40));
        m
    };
    let baseline = build().run().unwrap();

    let mut m = build();
    assert!(!step_n(&mut m, baseline.cycles / 2));
    let mut clone = m.clone();
    let resumed = clone.run().unwrap();
    assert_eq!(resumed, baseline, "chaotic clone diverged");

    let finished = m.run().unwrap();
    assert_eq!(finished, baseline);
    assert_eq!(
        clone.mem().backing().read_u32(COUNTER as u64),
        m.mem().backing().read_u32(COUNTER as u64),
        "chaotic clone left different memory"
    );
}
