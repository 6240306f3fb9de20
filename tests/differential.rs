//! Differential testing: random single-threaded programs must produce
//! identical architectural and memory state on the cycle-level machine and
//! the functional reference interpreter; and every driver of the
//! machine's stepping loop (`run`, `run_for`, `Fleet`), which park stalled
//! and blocked threads and jump the clock, must reproduce the naive loop
//! (`run_naive`), which classifies every live thread on every cycle, on
//! random programs (with issue-slot contention, fences and barriers) and
//! on every kernel.
//!
//! Originally written with `proptest`; the offline build environment cannot
//! fetch it, so the cases now run as seeded loops over `glsc-rng`. Each
//! case prints its seed on failure for reproduction.

use glsc::isa::{AluOp, CmpOp, FpOp, MReg, Program, ProgramBuilder, Reg, VReg};
use glsc::mem::Backing;
use glsc::sim::{
    reference, ArbitrationPolicy, FaultPlan, Fleet, FleetJob, Machine, MachineConfig,
    MachineSnapshot, MemoryOrder, NocConfig, RunReport, SlicedRun,
};
use glsc_rng::rngs::StdRng;
use glsc_rng::{Rng, SeedableRng};

const WINDOW_BASE: i64 = 0x1_0000;
const WINDOW_WORDS: u32 = 256;

/// One random instruction "recipe".
#[derive(Clone, Debug)]
enum Op {
    Li { rd: u8, imm: i32 },
    Alu { op: AluOp, rd: u8, rs: u8, imm: i32 },
    AluRr { op: AluOp, rd: u8, rs: u8, rt: u8 },
    Fp { op: FpOp, rd: u8, rs: u8, rt: u8 },
    Cmp { op: CmpOp, rd: u8, rs: u8, imm: i32 },
    Load { rd: u8, word: u32 },
    Store { rs: u8, word: u32 },
    Ll { rd: u8, word: u32 },
    Sc { rd: u8, rs: u8, word: u32 },
    VAluImm { op: AluOp, vd: u8, vs: u8, imm: i32 },
    VFp { op: FpOp, vd: u8, vs: u8, vt: u8 },
    VSplat { vd: u8, rs: u8 },
    VIota { vd: u8 },
    VCmp { op: CmpOp, fd: u8, vs: u8, imm: i32 },
    MaskCombine { fd: u8, fa: u8, fb: u8, kind: u8 },
    VLoad { vd: u8, word: u32 },
    VStore { vs: u8, word: u32 },
    VGather { vd: u8, vidx: u8 },
    VScatter { vs: u8, vidx: u8 },
    GatherLink { fd: u8, vd: u8, vidx: u8, fsrc: u8 },
    ScatterCond { fd: u8, vs: u8, vidx: u8, fsrc: u8 },
    Barrier,
    Fence { kind: u8 },
}

const ALU_OPS: [AluOp; 12] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Rem,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::Shr,
    AluOp::Min,
    AluOp::Max,
];

const FP_OPS: [FpOp; 6] = [
    FpOp::Add,
    FpOp::Sub,
    FpOp::Mul,
    FpOp::Div,
    FpOp::Min,
    FpOp::Max,
];

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn random_op(rng: &mut StdRng) -> Op {
    // r3..r11: leave r0/r1 (ids) and r2 (window base) alone.
    let r = |rng: &mut StdRng| rng.random_range(3..12u8);
    let v = |rng: &mut StdRng| rng.random_range(0..8u8);
    let f = |rng: &mut StdRng| rng.random_range(0..4u8);
    let word = |rng: &mut StdRng| rng.random_range(0..WINDOW_WORDS);
    let imm = |rng: &mut StdRng| rng.random::<u32>() as i32;
    let alu = |rng: &mut StdRng| ALU_OPS[rng.random_range(0..ALU_OPS.len())];
    let fp = |rng: &mut StdRng| FP_OPS[rng.random_range(0..FP_OPS.len())];
    let cmp = |rng: &mut StdRng| CMP_OPS[rng.random_range(0..CMP_OPS.len())];
    match rng.random_range(0..21usize) {
        0 => Op::Li {
            rd: r(rng),
            imm: imm(rng),
        },
        1 => Op::Alu {
            op: alu(rng),
            rd: r(rng),
            rs: r(rng),
            imm: imm(rng),
        },
        2 => Op::AluRr {
            op: alu(rng),
            rd: r(rng),
            rs: r(rng),
            rt: r(rng),
        },
        3 => Op::Fp {
            op: fp(rng),
            rd: r(rng),
            rs: r(rng),
            rt: r(rng),
        },
        4 => Op::Cmp {
            op: cmp(rng),
            rd: r(rng),
            rs: r(rng),
            imm: imm(rng),
        },
        5 => Op::Load {
            rd: r(rng),
            word: word(rng),
        },
        6 => Op::Store {
            rs: r(rng),
            word: word(rng),
        },
        7 => Op::Ll {
            rd: r(rng),
            word: word(rng),
        },
        8 => Op::Sc {
            rd: r(rng),
            rs: r(rng),
            word: word(rng),
        },
        9 => Op::VAluImm {
            op: alu(rng),
            vd: v(rng),
            vs: v(rng),
            imm: imm(rng),
        },
        10 => Op::VFp {
            op: fp(rng),
            vd: v(rng),
            vs: v(rng),
            vt: v(rng),
        },
        11 => Op::VSplat {
            vd: v(rng),
            rs: r(rng),
        },
        12 => Op::VIota { vd: v(rng) },
        13 => Op::VCmp {
            op: cmp(rng),
            fd: f(rng),
            vs: v(rng),
            imm: imm(rng),
        },
        14 => Op::MaskCombine {
            fd: f(rng),
            fa: f(rng),
            fb: f(rng),
            kind: rng.random_range(0..4u8),
        },
        15 => Op::VLoad {
            vd: v(rng),
            word: word(rng),
        },
        16 => Op::VStore {
            vs: v(rng),
            word: word(rng),
        },
        17 => Op::VGather {
            vd: v(rng),
            vidx: v(rng),
        },
        18 => Op::VScatter {
            vs: v(rng),
            vidx: v(rng),
        },
        19 => Op::GatherLink {
            fd: f(rng),
            vd: v(rng),
            vidx: v(rng),
            fsrc: f(rng),
        },
        _ => Op::ScatterCond {
            fd: f(rng),
            vs: v(rng),
            vidx: v(rng),
            fsrc: f(rng),
        },
    }
}

/// A random op for multi-threaded programs: one in eight is a barrier or
/// a fence (full, acquire or release), the rest come from [`random_op`].
/// Kept out of [`random_op`] because the single-threaded functional
/// reference rejects barriers.
fn random_sync_op(rng: &mut StdRng) -> Op {
    if rng.random_range(0..8u8) != 0 {
        return random_op(rng);
    }
    match rng.random_range(0..4u8) {
        0 => Op::Barrier,
        kind => Op::Fence { kind: kind - 1 },
    }
}

/// Assembles the recipe into a straight-line program. Indexed ops bound
/// their index vector into the window first (`vand idx, idx, 255`), using
/// v15 as scratch so the recipe's registers are untouched.
fn assemble(ops: &[Op], width: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let base = Reg::new(2);
    let vidx_scratch = VReg::new(15);
    b.li(base, WINDOW_BASE);
    let vload_off = |w: u32| {
        // Keep the full vector inside the window.
        (4 * w.min(WINDOW_WORDS.saturating_sub(width as u32))) as i64
    };
    for op in ops {
        match *op {
            Op::Li { rd, imm } => {
                b.li(Reg::new(rd), imm as i64);
            }
            Op::Alu { op, rd, rs, imm } => {
                b.alu(op, Reg::new(rd), Reg::new(rs), imm as i64);
            }
            Op::AluRr { op, rd, rs, rt } => {
                b.alu(op, Reg::new(rd), Reg::new(rs), Reg::new(rt));
            }
            Op::Fp { op, rd, rs, rt } => {
                b.emit(glsc::isa::Instr::Fp {
                    op,
                    rd: Reg::new(rd),
                    rs: Reg::new(rs),
                    rt: Reg::new(rt),
                });
            }
            Op::Cmp { op, rd, rs, imm } => {
                b.cmp(op, Reg::new(rd), Reg::new(rs), imm as i64);
            }
            Op::Load { rd, word } => {
                b.ld(Reg::new(rd), base, (4 * word) as i64);
            }
            Op::Store { rs, word } => {
                b.st(Reg::new(rs), base, (4 * word) as i64);
            }
            Op::Ll { rd, word } => {
                b.ll(Reg::new(rd), base, (4 * word) as i64);
            }
            Op::Sc { rd, rs, word } => {
                b.sc(Reg::new(rd), Reg::new(rs), base, (4 * word) as i64);
            }
            Op::VAluImm { op, vd, vs, imm } => {
                b.valu(op, VReg::new(vd), VReg::new(vs), imm as i64, None);
            }
            Op::VFp { op, vd, vs, vt } => {
                b.vfp(op, VReg::new(vd), VReg::new(vs), VReg::new(vt), None);
            }
            Op::VSplat { vd, rs } => {
                b.vsplat(VReg::new(vd), Reg::new(rs));
            }
            Op::VIota { vd } => {
                b.viota(VReg::new(vd));
            }
            Op::VCmp { op, fd, vs, imm } => {
                b.vcmp(op, MReg::new(fd), VReg::new(vs), imm as i64, None);
            }
            Op::MaskCombine { fd, fa, fb, kind } => {
                match kind {
                    0 => b.mand(MReg::new(fd), MReg::new(fa), MReg::new(fb)),
                    1 => b.mor(MReg::new(fd), MReg::new(fa), MReg::new(fb)),
                    2 => b.mxor(MReg::new(fd), MReg::new(fa), MReg::new(fb)),
                    _ => b.mnot(MReg::new(fd), MReg::new(fa)),
                };
            }
            Op::VLoad { vd, word } => {
                b.vload(VReg::new(vd), base, vload_off(word), None);
            }
            Op::VStore { vs, word } => {
                b.vstore(VReg::new(vs), base, vload_off(word), None);
            }
            Op::VGather { vd, vidx } => {
                b.vand(
                    vidx_scratch,
                    VReg::new(vidx),
                    (WINDOW_WORDS - 1) as i64,
                    None,
                );
                b.vgather(VReg::new(vd), base, vidx_scratch, None);
            }
            Op::VScatter { vs, vidx } => {
                b.vand(
                    vidx_scratch,
                    VReg::new(vidx),
                    (WINDOW_WORDS - 1) as i64,
                    None,
                );
                b.vscatter(VReg::new(vs), base, vidx_scratch, None);
            }
            Op::GatherLink { fd, vd, vidx, fsrc } => {
                b.vand(
                    vidx_scratch,
                    VReg::new(vidx),
                    (WINDOW_WORDS - 1) as i64,
                    None,
                );
                b.vgatherlink(
                    MReg::new(fd),
                    VReg::new(vd),
                    base,
                    vidx_scratch,
                    MReg::new(fsrc),
                );
            }
            Op::ScatterCond { fd, vs, vidx, fsrc } => {
                b.vand(
                    vidx_scratch,
                    VReg::new(vidx),
                    (WINDOW_WORDS - 1) as i64,
                    None,
                );
                b.vscattercond(
                    MReg::new(fd),
                    VReg::new(vs),
                    base,
                    vidx_scratch,
                    MReg::new(fsrc),
                );
            }
            Op::Barrier => {
                b.barrier();
            }
            Op::Fence { kind } => {
                match kind {
                    0 => b.fence(),
                    1 => b.fence_acq(),
                    _ => b.fence_rel(),
                };
            }
        }
    }
    b.halt();
    b.build().expect("straight-line program assembles")
}

fn initial_memory() -> Vec<u32> {
    (0..WINDOW_WORDS)
        .map(|i| i.wrapping_mul(2654435761))
        .collect()
}

#[test]
fn machine_matches_functional_reference() {
    const WIDTHS: [usize; 4] = [1, 4, 8, 16];
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xD1FF_0001 ^ seed);
        let n = rng.random_range(1..40usize);
        let ops: Vec<Op> = (0..n).map(|_| random_op(&mut rng)).collect();
        let width = WIDTHS[rng.random_range(0..WIDTHS.len())];
        let program = assemble(&ops, width);

        // Functional reference.
        let mut ref_mem = glsc::mem::Backing::new();
        ref_mem.write_u32_slice(WINDOW_BASE as u64, &initial_memory());
        let ref_arch = reference::run_functional(&program, &mut ref_mem, width, 1_000_000)
            .expect("straight-line program terminates");

        // Cycle-level machine (1 core, 1 thread).
        let mut machine = Machine::new(MachineConfig::paper(1, 1, width));
        machine
            .mem_mut()
            .backing_mut()
            .write_u32_slice(WINDOW_BASE as u64, &initial_memory());
        machine.load_program(program);
        machine.run().expect("machine run succeeds");

        // Compare the memory window.
        for w in 0..WINDOW_WORDS as u64 {
            let addr = WINDOW_BASE as u64 + 4 * w;
            assert_eq!(
                machine.mem().backing().read_u32(addr),
                ref_mem.read_u32(addr),
                "seed {seed}: memory diverged at word {w}"
            );
        }
        // Compare scalar registers, vector registers, and masks.
        let arch = machine.thread_arch(0);
        for i in 0..32u8 {
            assert_eq!(
                arch.reg(Reg::new(i)),
                ref_arch.reg(Reg::new(i)),
                "seed {seed}: r{i} diverged"
            );
        }
        for i in 0..16u8 {
            assert_eq!(
                arch.vreg(VReg::new(i)),
                ref_arch.vreg(VReg::new(i)),
                "seed {seed}: v{i} diverged"
            );
        }
        for i in 0..8u8 {
            assert_eq!(
                arch.mreg(MReg::new(i)),
                ref_arch.mreg(MReg::new(i)),
                "seed {seed}: f{i} diverged"
            );
        }
    }
}

/// Slice budget for the `run_for` leg of [`assert_every_loop_agrees`]:
/// odd and prime, so slice ends fall at every phase of a kernel's loops.
const SLICE: u64 = 97;

/// Fleet quantum for the same, likewise odd and unrelated to `SLICE`.
const QUANTUM: u64 = 61;

/// Runs one job through every driver of the stepping loop and asserts
/// that each leaves the `RunReport` and final memory of the
/// single-stepped reference, `run_naive`:
///
/// * `run`, where stalled and blocked threads park and the clock jumps
///   over cycles in which no thread is stepped and every memory unit is
///   idle;
/// * `run_for` in `SLICE`-cycle slices, each call advancing at most
///   `SLICE` cycles;
/// * a width-2 `Fleet` in `QUANTUM`-cycle quanta, running the job live
///   beside a twin whose configuration differs only in its cycle budget
///   (the fleet groups jobs by configuration, so identical twins would
///   run one after the other).
///
/// `build` makes a ready-to-run machine for `job`; `read` takes what is
/// compared of a finished machine's memory. Returns the reference report
/// and memory.
fn assert_every_loop_agrees<T: PartialEq + std::fmt::Debug>(
    job: FleetJob,
    build: impl Fn() -> Machine,
    read: impl Fn(&Machine) -> T,
    what: &str,
) -> (RunReport, T) {
    let mut naive = build();
    let expect = naive
        .run_naive()
        .unwrap_or_else(|e| panic!("{what}: naive run failed: {e}"));
    let expect_mem = read(&naive);

    let mut fast = build();
    let report = fast
        .run()
        .unwrap_or_else(|e| panic!("{what}: run failed: {e}"));
    assert_eq!(report, expect, "{what}: run diverged from run_naive");
    assert_eq!(read(&fast), expect_mem, "{what}: run left different memory");

    let mut sliced = build();
    let mut run = SlicedRun::new(&sliced);
    let report = loop {
        let before = sliced.cycle();
        let out = sliced
            .run_for(&mut run, SLICE)
            .unwrap_or_else(|e| panic!("{what}: run_for failed: {e}"));
        let advanced = sliced.cycle() - before;
        assert!(
            advanced <= SLICE,
            "{what}: run_for({SLICE}) advanced {advanced} cycles from cycle {before}"
        );
        if let Some(report) = out {
            break report;
        }
    };
    assert_eq!(
        report, expect,
        "{what}: run_for slices diverged from run_naive"
    );
    assert_eq!(
        read(&sliced),
        expect_mem,
        "{what}: run_for left different memory"
    );

    let mut twin = job.clone();
    twin.cfg.max_cycles += 1;
    let mut finished = 0;
    Fleet::new()
        .with_width(2)
        .with_quantum(QUANTUM)
        .run_each(vec![job, twin], |idx, m, result| {
            let report = result.unwrap_or_else(|e| panic!("{what}: fleet job {idx} failed: {e}"));
            assert_eq!(
                report, expect,
                "{what}: fleet job {idx} diverged from run_naive"
            );
            assert_eq!(
                read(m),
                expect_mem,
                "{what}: fleet job {idx} left different memory"
            );
            finished += 1;
        });
    assert_eq!(finished, 2, "{what}: fleet lost a job");
    (expect, expect_mem)
}

/// Parked threads and clock jumps in `Machine::run` must be an invisible
/// optimization: every driver of the stepping loop leaves the `RunReport`
/// (cycles, every per-thread stall counter, memory/LSU/GSU stats) and the
/// final memory of the naive single-stepped loop, on random programs
/// across machine shapes and every memory order, with a chaos plan on
/// odd seeds. The 1x4 and 2x4 shapes run four threads into two issue
/// slots, so threads lose slots; barrier waiters park until the release,
/// and fences hold threads on the memory unit. Under TSO and the relaxed
/// model the random stores sit in write buffers, which drain after their
/// thread halts. A machine stepped to a random cycle, snapshotted through
/// the codec and resumed with `run` must finish the same way too.
#[test]
fn fast_forward_matches_naive_random_programs() {
    const SHAPES: [(usize, usize); 5] = [(1, 1), (2, 2), (4, 1), (1, 4), (2, 4)];
    const WIDTHS: [usize; 3] = [1, 4, 8];
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xD1FF_0002 ^ seed);
        let n = rng.random_range(1..40usize);
        let ops: Vec<Op> = (0..n).map(|_| random_sync_op(&mut rng)).collect();
        let width = WIDTHS[rng.random_range(0..WIDTHS.len())];
        let (cores, tpc) = SHAPES[rng.random_range(0..SHAPES.len())];
        let program = assemble(&ops, width);
        let mut staging = Backing::new();
        staging.write_u32_slice(WINDOW_BASE as u64, &initial_memory());
        let base = staging.freeze();

        let chaos = (seed % 2 == 1).then(|| FaultPlan::from_seed(seed));
        for order in MemoryOrder::ALL {
            let cfg = MachineConfig::paper(cores, tpc, width).with_memory_order(order);
            let build = || {
                let mut m = Machine::new(cfg.clone());
                m.mem_mut()
                    .backing_mut()
                    .write_u32_slice(WINDOW_BASE as u64, &initial_memory());
                m.load_program(program.clone());
                if let Some(plan) = &chaos {
                    m.mem_mut().install_fault_plan(plan.clone());
                }
                m
            };
            let mut job = FleetJob::new(cfg.clone(), program.clone()).with_base(base.clone());
            job.fault_plan = chaos.clone();
            let window = |m: &Machine| {
                m.mem()
                    .backing()
                    .read_u32_vec(WINDOW_BASE as u64, WINDOW_WORDS as usize)
            };
            let what = format!(
                "seed {seed} ({cores}x{tpc} w{width} {order:?}, chaos {})",
                chaos.is_some()
            );
            let (whole, memory) = assert_every_loop_agrees(job, build, window, &what);

            let at = rng.random_range(0..whole.cycles);
            let mut m = build();
            for _ in 0..at {
                m.step();
            }
            let bytes = m.snapshot().to_bytes();
            let snap = MachineSnapshot::from_bytes(&bytes).expect("snapshot decodes");
            let mut resumed = Machine::from_snapshot(&snap);
            let report = resumed
                .run()
                .unwrap_or_else(|e| panic!("{what}: resumed run failed: {e}"));
            assert_eq!(report, whole, "{what}: run resumed at cycle {at} diverged");
            assert_eq!(window(&resumed), memory, "{what}: resumed at cycle {at}");
        }
    }
}

/// The same on the real workloads: all seven kernels, both variants,
/// across the four Fig. 6 machine shapes at tiny scale, under every
/// memory order; and at 4x4, also on the Ring fabric with aged
/// arbitration, where NoC queueing and refused store-conditionals shape
/// the idle windows.
#[test]
fn fast_forward_matches_naive_all_kernels() {
    use glsc::kernels::{build_named, Dataset, Variant, KERNEL_NAMES};
    const SHAPES: [(usize, usize); 4] = [(1, 1), (1, 4), (4, 1), (4, 4)];
    for kernel in KERNEL_NAMES {
        for (cores, tpc) in SHAPES {
            let fabrics: &[(NocConfig, ArbitrationPolicy)] = if (cores, tpc) == (4, 4) {
                &[
                    (NocConfig::ideal(), ArbitrationPolicy::Free),
                    (NocConfig::ring(), ArbitrationPolicy::AgedPriority),
                ]
            } else {
                &[(NocConfig::ideal(), ArbitrationPolicy::Free)]
            };
            for (noc, policy) in fabrics {
                for order in MemoryOrder::ALL {
                    for variant in [Variant::Base, Variant::Glsc] {
                        let cfg = MachineConfig::paper(cores, tpc, 4)
                            .with_noc(noc.clone())
                            .with_arbitration(*policy)
                            .with_memory_order(order);
                        let w = build_named(kernel, Dataset::Tiny, variant, &cfg)
                            .expect("known kernel");
                        let build = || {
                            let mut m = Machine::new(cfg.clone());
                            w.image.apply(m.mem_mut().backing_mut());
                            m.load_program(w.program.clone());
                            m
                        };
                        let job = FleetJob::new(cfg.clone(), w.program.clone())
                            .with_base(w.image.publish());
                        // The kernel's golden check: its verdict (and, on a
                        // mismatch, its message) must not depend on the loop.
                        let verdict = |m: &Machine| (w.validate)(m.mem().backing());
                        let what = format!(
                            "{kernel} {cores}x{tpc} {variant:?} {order:?} {:?} {}",
                            noc.topology,
                            policy.label()
                        );
                        let (_, valid) = assert_every_loop_agrees(job, build, verdict, &what);
                        valid.unwrap_or_else(|e| panic!("{what}: kernel output is wrong: {e}"));
                    }
                }
            }
        }
    }
}

/// `run_for(budget)` advances at most `budget` cycles per call, even when
/// every core sleeps past the slice end, and its slices concatenate to
/// the report of one `run`. HIP's Base variant at 1x1 spends long windows
/// waiting on misses, so most 64-cycle slices end inside a sleep.
#[test]
fn run_for_never_advances_past_its_budget() {
    use glsc::kernels::{build_named, Dataset, Variant};
    const BUDGET: u64 = 64;
    for (cores, tpc) in [(1, 1), (4, 4)] {
        let cfg = MachineConfig::paper(cores, tpc, 4);
        let w = build_named("HIP", Dataset::Tiny, Variant::Base, &cfg).expect("known kernel");
        let build = || {
            let mut m = Machine::new(cfg.clone());
            w.image.apply(m.mem_mut().backing_mut());
            m.load_program(w.program.clone());
            m
        };
        let whole = build().run().expect("HIP runs");
        let mut m = build();
        let mut run = SlicedRun::new(&m);
        let mut calls = 0u64;
        let report = loop {
            let before = m.cycle();
            let out = m.run_for(&mut run, BUDGET).expect("HIP slices run");
            calls += 1;
            assert!(
                m.cycle() - before <= BUDGET,
                "{cores}x{tpc}: call {calls} advanced {} cycles from cycle {before}",
                m.cycle() - before
            );
            if let Some(report) = out {
                break report;
            }
        };
        assert_eq!(report, whole, "{cores}x{tpc}: slices diverged from run");
        assert!(
            calls >= whole.cycles / BUDGET,
            "{cores}x{tpc}: {calls} calls cannot cover {} cycles",
            whole.cycles
        );
    }
}
