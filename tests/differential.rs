//! Differential testing: random single-threaded programs must produce
//! identical architectural and memory state on the cycle-level machine and
//! the functional reference interpreter; and every driver of the
//! machine's stepping loop (`run`, `run_for`, `Fleet`), which park stalled
//! and blocked threads and jump the clock, must reproduce the naive loop
//! (`run_naive`), which visits every live thread on every cycle, on
//! random programs (with issue-slot contention, fences and barriers) and
//! on every kernel.
//!
//! `run_naive` shares the issue stage's stall classification with `run`,
//! so agreement between them cannot catch a classification mistake. The
//! naive reports are therefore also pinned whole: each kernel job's
//! `glsc-wire` encoding has a committed `glsc_wire::fnv64` digest
//! (`REPORT_DIGESTS`, regenerated by `cargo run --release --example
//! golden_dump`), and the random programs' reports share one combined
//! digest (`RANDOM_REPORTS_DIGEST`, whose failing assertion prints the new
//! value). An intentional change to timing or statistics updates both and
//! explains why.
//!
//! Originally written with `proptest`; the offline build environment cannot
//! fetch it, so the cases now run as seeded loops over `glsc-rng`. Each
//! case prints its seed on failure for reproduction.

use glsc::isa::{AluOp, CmpOp, FpOp, MReg, Program, ProgramBuilder, Reg, VReg};
use glsc::mem::Backing;
use glsc::sim::{
    reference, ArbitrationPolicy, FaultPlan, Fleet, FleetJob, Machine, MachineConfig, MemoryOrder,
    NocConfig, PauseCtl, RunReport, SlicedRun,
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
///   beside a twin.
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

    let twin = job.clone();
    let mut finished = 0;
    let done = Fleet::new()
        .with_width(2)
        .with_quantum(QUANTUM)
        .run_each_supervised(
            vec![job, twin],
            |_, _| PauseCtl::Continue,
            |idx, m, result| {
                let report =
                    result.unwrap_or_else(|e| panic!("{what}: fleet job {idx} failed: {e}"));
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
            },
        );
    assert!(done, "{what}: the fleet stopped before every job ran");
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
/// thread halts. A machine stepped to a random cycle and cloned there
/// must finish the same way too, clone and original alike.
#[test]
fn fast_forward_matches_naive_random_programs() {
    const SHAPES: [(usize, usize); 5] = [(1, 1), (2, 2), (4, 1), (1, 4), (2, 4)];
    const WIDTHS: [usize; 3] = [1, 4, 8];
    let mut encoded = Vec::new();
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
            encoded.extend(glsc_wire::to_bytes(&whole));

            let at = rng.random_range(0..whole.cycles);
            let mut m = build();
            for _ in 0..at {
                m.step();
            }
            let mut clone = m.clone();
            for (side, m) in [("clone", &mut clone), ("original", &mut m)] {
                let report = m
                    .run()
                    .unwrap_or_else(|e| panic!("{what}: {side} of cycle {at} failed: {e}"));
                assert_eq!(report, whole, "{what}: {side} of cycle {at} diverged");
                assert_eq!(window(m), memory, "{what}: {side} of cycle {at}");
            }
        }
    }
    let digest = glsc_wire::fnv64(&encoded);
    assert_eq!(
        digest, RANDOM_REPORTS_DIGEST,
        "the random programs' reports left their pinned digest: {digest:#018x}"
    );
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
    let mut digests = REPORT_DIGESTS.iter();
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
                        let (report, valid) = assert_every_loop_agrees(job, build, verdict, &what);
                        valid.unwrap_or_else(|e| panic!("{what}: kernel output is wrong: {e}"));
                        let digest = report_digest(&report);
                        assert_eq!(
                            digests.next(),
                            Some(&(what.as_str(), digest)),
                            "{what}: the report left its pinned digest (now {digest:#018x})"
                        );
                    }
                }
            }
        }
    }
    assert_eq!(digests.next(), None, "REPORT_DIGESTS has rows for no job");
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

/// `glsc_wire::fnv64` of `report`'s `glsc-wire` encoding.
fn report_digest(report: &RunReport) -> u64 {
    glsc_wire::fnv64(&glsc_wire::to_bytes(report))
}

/// `glsc_wire::fnv64` over the concatenated `glsc-wire` encodings of the
/// random-program leg's naive reports, in its seed and memory-order
/// order. Its failing assertion prints the new value.
const RANDOM_REPORTS_DIGEST: u64 = 0x525280f123c933a3;

/// The digest of every `fast_forward_matches_naive_all_kernels` job's
/// naive report, keyed by its label, in the test's job order; regenerate
/// with `cargo run --release --example golden_dump`.
#[rustfmt::skip]
const REPORT_DIGESTS: &[(&str, u64)] = &[
    ("GBC 1x1 Base Sc Ideal free", 0xda76f3075ea9a269),
    ("GBC 1x1 Glsc Sc Ideal free", 0x08be388b679262e5),
    ("GBC 1x1 Base Tso Ideal free", 0xb8c55a176d98fa68),
    ("GBC 1x1 Glsc Tso Ideal free", 0x08be378b67926132),
    ("GBC 1x1 Base RelaxedFence Ideal free", 0x3420f6d5a7d48ff1),
    ("GBC 1x1 Glsc RelaxedFence Ideal free", 0x08be368b67925f7f),
    ("GBC 1x4 Base Sc Ideal free", 0xde732f61b320cbc2),
    ("GBC 1x4 Glsc Sc Ideal free", 0x25a41c31bb0cf34e),
    ("GBC 1x4 Base Tso Ideal free", 0xef941f9e334377c0),
    ("GBC 1x4 Glsc Tso Ideal free", 0x25a41d31bb0cf501),
    ("GBC 1x4 Base RelaxedFence Ideal free", 0x268260e208586e16),
    ("GBC 1x4 Glsc RelaxedFence Ideal free", 0x25a41a31bb0cefe8),
    ("GBC 4x1 Base Sc Ideal free", 0x938d4008324343a9),
    ("GBC 4x1 Glsc Sc Ideal free", 0xb6732dcc4a7a1d74),
    ("GBC 4x1 Base Tso Ideal free", 0x5e344b8ad86d577d),
    ("GBC 4x1 Glsc Tso Ideal free", 0xb6732ecc4a7a1f27),
    ("GBC 4x1 Base RelaxedFence Ideal free", 0x6a0201f087dd9002),
    ("GBC 4x1 Glsc RelaxedFence Ideal free", 0xb6732fcc4a7a20da),
    ("GBC 4x4 Base Sc Ideal free", 0x848fb1a4cc6bf542),
    ("GBC 4x4 Glsc Sc Ideal free", 0xeb37b7561515e462),
    ("GBC 4x4 Base Tso Ideal free", 0xb4d6a1306ca76708),
    ("GBC 4x4 Glsc Tso Ideal free", 0xeb37b8561515e615),
    ("GBC 4x4 Base RelaxedFence Ideal free", 0x9ed64e2fd878104e),
    ("GBC 4x4 Glsc RelaxedFence Ideal free", 0xeb37b5561515e0fc),
    ("GBC 4x4 Base Sc Ring aged", 0x26de39b718a3690e),
    ("GBC 4x4 Glsc Sc Ring aged", 0x8b4f6b5ff6305683),
    ("GBC 4x4 Base Tso Ring aged", 0xaaf5c42acd0b3f9f),
    ("GBC 4x4 Glsc Tso Ring aged", 0x8b4f6a5ff63054d0),
    ("GBC 4x4 Base RelaxedFence Ring aged", 0xdda3b6ec4db00e54),
    ("GBC 4x4 Glsc RelaxedFence Ring aged", 0x8b4f6d5ff63059e9),
    ("FS 1x1 Base Sc Ideal free", 0x8ceca71b4818f13b),
    ("FS 1x1 Glsc Sc Ideal free", 0xf68d0f00b3fb9c91),
    ("FS 1x1 Base Tso Ideal free", 0x8ceca61b4818ef88),
    ("FS 1x1 Glsc Tso Ideal free", 0xf68d0e00b3fb9ade),
    ("FS 1x1 Base RelaxedFence Ideal free", 0x8ceca91b4818f4a1),
    ("FS 1x1 Glsc RelaxedFence Ideal free", 0xf68d0d00b3fb992b),
    ("FS 1x4 Base Sc Ideal free", 0x472ff76b225921dd),
    ("FS 1x4 Glsc Sc Ideal free", 0x80a0c3157cc19511),
    ("FS 1x4 Base Tso Ideal free", 0x472ff66b2259202a),
    ("FS 1x4 Glsc Tso Ideal free", 0x80a0c2157cc1935e),
    ("FS 1x4 Base RelaxedFence Ideal free", 0x472ff56b22591e77),
    ("FS 1x4 Glsc RelaxedFence Ideal free", 0x80a0c1157cc191ab),
    ("FS 4x1 Base Sc Ideal free", 0x6936cafe58061939),
    ("FS 4x1 Glsc Sc Ideal free", 0xc391e17ecf8a3ce0),
    ("FS 4x1 Base Tso Ideal free", 0x6936c9fe58061786),
    ("FS 4x1 Glsc Tso Ideal free", 0xc391e27ecf8a3e93),
    ("FS 4x1 Base RelaxedFence Ideal free", 0x6936c8fe580615d3),
    ("FS 4x1 Glsc RelaxedFence Ideal free", 0xc391e37ecf8a4046),
    ("FS 4x4 Base Sc Ideal free", 0x88b9cbc4a2cf380e),
    ("FS 4x4 Glsc Sc Ideal free", 0xa3eb3e376acaf387),
    ("FS 4x4 Base Tso Ideal free", 0x88b9ccc4a2cf39c1),
    ("FS 4x4 Glsc Tso Ideal free", 0xa3eb3d376acaf1d4),
    ("FS 4x4 Base RelaxedFence Ideal free", 0x88b9c9c4a2cf34a8),
    ("FS 4x4 Glsc RelaxedFence Ideal free", 0xa3eb40376acaf6ed),
    ("FS 4x4 Base Sc Ring aged", 0xb6acde6856d4c9cc),
    ("FS 4x4 Glsc Sc Ring aged", 0x773ea83b2916e765),
    ("FS 4x4 Base Tso Ring aged", 0xb6acdf6856d4cb7f),
    ("FS 4x4 Glsc Tso Ring aged", 0x773ea73b2916e5b2),
    ("FS 4x4 Base RelaxedFence Ring aged", 0xb6ace06856d4cd32),
    ("FS 4x4 Glsc RelaxedFence Ring aged", 0x773ea63b2916e3ff),
    ("GPS 1x1 Base Sc Ideal free", 0xf1089a226ad1358a),
    ("GPS 1x1 Glsc Sc Ideal free", 0xf99e22158437cf6d),
    ("GPS 1x1 Base Tso Ideal free", 0x15606bba8879574d),
    ("GPS 1x1 Glsc Tso Ideal free", 0xf99e21158437cdba),
    ("GPS 1x1 Base RelaxedFence Ideal free", 0xcd83d71bd2b880c8),
    ("GPS 1x1 Glsc RelaxedFence Ideal free", 0xf99e20158437cc07),
    ("GPS 1x4 Base Sc Ideal free", 0x30104055a5a1ad29),
    ("GPS 1x4 Glsc Sc Ideal free", 0xaa997edd73a38faf),
    ("GPS 1x4 Base Tso Ideal free", 0x273b7e1c56c7c167),
    ("GPS 1x4 Glsc Tso Ideal free", 0xaa997ddd73a38dfc),
    ("GPS 1x4 Base RelaxedFence Ideal free", 0x6311430087e0f01c),
    ("GPS 1x4 Glsc RelaxedFence Ideal free", 0xaa9980dd73a39315),
    ("GPS 4x1 Base Sc Ideal free", 0x080e96f0f38e3f4b),
    ("GPS 4x1 Glsc Sc Ideal free", 0x78d78ee60be3da59),
    ("GPS 4x1 Base Tso Ideal free", 0xafc17787f142630a),
    ("GPS 4x1 Glsc Tso Ideal free", 0x78d78de60be3d8a6),
    ("GPS 4x1 Base RelaxedFence Ideal free", 0x84eff96fd4357cf6),
    ("GPS 4x1 Glsc RelaxedFence Ideal free", 0x78d78ce60be3d6f3),
    ("GPS 4x4 Base Sc Ideal free", 0x463bac4b581acb62),
    ("GPS 4x4 Glsc Sc Ideal free", 0x7f480f10ac0a7c4b),
    ("GPS 4x4 Base Tso Ideal free", 0x5d81b14645844985),
    ("GPS 4x4 Glsc Tso Ideal free", 0x7f480e10ac0a7a98),
    ("GPS 4x4 Base RelaxedFence Ideal free", 0xec175285bf0a28b5),
    ("GPS 4x4 Glsc RelaxedFence Ideal free", 0x7f481110ac0a7fb1),
    ("GPS 4x4 Base Sc Ring aged", 0x6f6acd34b3675f82),
    ("GPS 4x4 Glsc Sc Ring aged", 0x54a95bc40616de1b),
    ("GPS 4x4 Base Tso Ring aged", 0xb5418a7c6a568f30),
    ("GPS 4x4 Glsc Tso Ring aged", 0x54a95ac40616dc68),
    ("GPS 4x4 Base RelaxedFence Ring aged", 0xe40d745d966bfd19),
    ("GPS 4x4 Glsc RelaxedFence Ring aged", 0x54a95dc40616e181),
    ("HIP 1x1 Base Sc Ideal free", 0xa2f08a2aee28e3fa),
    ("HIP 1x1 Glsc Sc Ideal free", 0x35badd517b91dfdf),
    ("HIP 1x1 Base Tso Ideal free", 0x2ed827cddb95f6d5),
    ("HIP 1x1 Glsc Tso Ideal free", 0x35badc517b91de2c),
    ("HIP 1x1 Base RelaxedFence Ideal free", 0x2ed824cddb95f1bc),
    ("HIP 1x1 Glsc RelaxedFence Ideal free", 0x35badf517b91e345),
    ("HIP 1x4 Base Sc Ideal free", 0xb250767a7e6003c7),
    ("HIP 1x4 Glsc Sc Ideal free", 0xdb04b0294d21a268),
    ("HIP 1x4 Base Tso Ideal free", 0x8c541a834d61ab34),
    ("HIP 1x4 Glsc Tso Ideal free", 0xdb04b1294d21a41b),
    ("HIP 1x4 Base RelaxedFence Ideal free", 0x0751aac9c75fb74d),
    ("HIP 1x4 Glsc RelaxedFence Ideal free", 0xdb04b2294d21a5ce),
    ("HIP 4x1 Base Sc Ideal free", 0xf173bd0e033b1d4f),
    ("HIP 4x1 Glsc Sc Ideal free", 0x24dcbdd3c182c5e5),
    ("HIP 4x1 Base Tso Ideal free", 0x54ac10ce31f60503),
    ("HIP 4x1 Glsc Tso Ideal free", 0x24dcbcd3c182c432),
    ("HIP 4x1 Base RelaxedFence Ideal free", 0x882efcadd82fd0e4),
    ("HIP 4x1 Glsc RelaxedFence Ideal free", 0x24dcbbd3c182c27f),
    ("HIP 4x4 Base Sc Ideal free", 0x3b537ecd7a1f9eda),
    ("HIP 4x4 Glsc Sc Ideal free", 0x56675719fa416d69),
    ("HIP 4x4 Base Tso Ideal free", 0xc7bf9635d49bce6d),
    ("HIP 4x4 Glsc Tso Ideal free", 0x56675619fa416bb6),
    ("HIP 4x4 Base RelaxedFence Ideal free", 0x85064bc6fe3a6597),
    ("HIP 4x4 Glsc RelaxedFence Ideal free", 0x56675519fa416a03),
    ("HIP 4x4 Base Sc Ring aged", 0xd8ef3a40c85e8cf3),
    ("HIP 4x4 Glsc Sc Ring aged", 0x7ad5cacaca18b51b),
    ("HIP 4x4 Base Tso Ring aged", 0x65540af5c62fd85f),
    ("HIP 4x4 Glsc Tso Ring aged", 0x7ad5c9caca18b368),
    ("HIP 4x4 Base RelaxedFence Ring aged", 0xdca9afb001d315c9),
    ("HIP 4x4 Glsc RelaxedFence Ring aged", 0x7ad5cccaca18b881),
    ("SMC 1x1 Base Sc Ideal free", 0xb50c17b3a59422cb),
    ("SMC 1x1 Glsc Sc Ideal free", 0x3619243117910033),
    ("SMC 1x1 Base Tso Ideal free", 0xb50c16b3a5942118),
    ("SMC 1x1 Glsc Tso Ideal free", 0x361923311790fe80),
    ("SMC 1x1 Base RelaxedFence Ideal free", 0xb50c19b3a5942631),
    ("SMC 1x1 Glsc RelaxedFence Ideal free", 0x3619263117910399),
    ("SMC 1x4 Base Sc Ideal free", 0x8ec133528f55663e),
    ("SMC 1x4 Glsc Sc Ideal free", 0x1d0e49ff118c2857),
    ("SMC 1x4 Base Tso Ideal free", 0x8ec134528f5567f1),
    ("SMC 1x4 Glsc Tso Ideal free", 0x1d0e48ff118c26a4),
    ("SMC 1x4 Base RelaxedFence Ideal free", 0x8ec131528f5562d8),
    ("SMC 1x4 Glsc RelaxedFence Ideal free", 0x1d0e4bff118c2bbd),
    ("SMC 4x1 Base Sc Ideal free", 0xccb1dd6c6dc42d8d),
    ("SMC 4x1 Glsc Sc Ideal free", 0x74b4f974ae96013b),
    ("SMC 4x1 Base Tso Ideal free", 0xccb1dc6c6dc42bda),
    ("SMC 4x1 Glsc Tso Ideal free", 0x74b4f874ae95ff88),
    ("SMC 4x1 Base RelaxedFence Ideal free", 0xccb1db6c6dc42a27),
    ("SMC 4x1 Glsc RelaxedFence Ideal free", 0x74b4fb74ae9604a1),
    ("SMC 4x4 Base Sc Ideal free", 0x83eabdc5e5a8fc91),
    ("SMC 4x4 Glsc Sc Ideal free", 0x335e7853b9a646a1),
    ("SMC 4x4 Base Tso Ideal free", 0x83eabcc5e5a8fade),
    ("SMC 4x4 Glsc Tso Ideal free", 0x335e7753b9a644ee),
    ("SMC 4x4 Base RelaxedFence Ideal free", 0x83eabbc5e5a8f92b),
    ("SMC 4x4 Glsc RelaxedFence Ideal free", 0x335e7653b9a6433b),
    ("SMC 4x4 Base Sc Ring aged", 0x285680510cbac9d9),
    ("SMC 4x4 Glsc Sc Ring aged", 0xa565b4248a7a22ec),
    ("SMC 4x4 Base Tso Ring aged", 0x28567f510cbac826),
    ("SMC 4x4 Glsc Tso Ring aged", 0xa565b5248a7a249f),
    ("SMC 4x4 Base RelaxedFence Ring aged", 0x28567e510cbac673),
    ("SMC 4x4 Glsc RelaxedFence Ring aged", 0xa565b6248a7a2652),
    ("MFP 1x1 Base Sc Ideal free", 0xdbf4e85c4a5a6ca9),
    ("MFP 1x1 Glsc Sc Ideal free", 0x2109d3e0e68b068d),
    ("MFP 1x1 Base Tso Ideal free", 0x9a06f3730461ecd8),
    ("MFP 1x1 Glsc Tso Ideal free", 0x2109d2e0e68b04da),
    ("MFP 1x1 Base RelaxedFence Ideal free", 0xa3c81e8f1ec55582),
    ("MFP 1x1 Glsc RelaxedFence Ideal free", 0x2109d1e0e68b0327),
    ("MFP 1x4 Base Sc Ideal free", 0x2ab083c7ec8cd489),
    ("MFP 1x4 Glsc Sc Ideal free", 0xd69d6a3d999b920b),
    ("MFP 1x4 Base Tso Ideal free", 0x6bd9c01887a102b7),
    ("MFP 1x4 Glsc Tso Ideal free", 0xd69d693d999b9058),
    ("MFP 1x4 Base RelaxedFence Ideal free", 0x4e39901379477ff3),
    ("MFP 1x4 Glsc RelaxedFence Ideal free", 0xd69d6c3d999b9571),
    ("MFP 4x1 Base Sc Ideal free", 0xdc7046e1237b2d54),
    ("MFP 4x1 Glsc Sc Ideal free", 0x3b185fc307f953c7),
    ("MFP 4x1 Base Tso Ideal free", 0xc8ee760b851f6eb1),
    ("MFP 4x1 Glsc Tso Ideal free", 0x3b185ec307f95214),
    ("MFP 4x1 Base RelaxedFence Ideal free", 0x099e7f3e5ada69d6),
    ("MFP 4x1 Glsc RelaxedFence Ideal free", 0x3b1861c307f9572d),
    ("MFP 4x4 Base Sc Ideal free", 0x7996401975e09e29),
    ("MFP 4x4 Glsc Sc Ideal free", 0x1f2d24dd438db1a7),
    ("MFP 4x4 Base Tso Ideal free", 0xf47201bf335eea5c),
    ("MFP 4x4 Glsc Tso Ideal free", 0x1f2d23dd438daff4),
    ("MFP 4x4 Base RelaxedFence Ideal free", 0xcce732752592cbcb),
    ("MFP 4x4 Glsc RelaxedFence Ideal free", 0x1f2d26dd438db50d),
    ("MFP 4x4 Base Sc Ring aged", 0xaa9ac9601e749460),
    ("MFP 4x4 Glsc Sc Ring aged", 0xce2597ceafa87118),
    ("MFP 4x4 Base Tso Ring aged", 0xda573f20db0696ed),
    ("MFP 4x4 Glsc Tso Ring aged", 0xce2598ceafa872cb),
    ("MFP 4x4 Base RelaxedFence Ring aged", 0x726ca3b0ef87e924),
    ("MFP 4x4 Glsc RelaxedFence Ring aged", 0xce2599ceafa8747e),
    ("TMS 1x1 Base Sc Ideal free", 0x5b345077592de69f),
    ("TMS 1x1 Glsc Sc Ideal free", 0x2dc5ccf9cbcbda23),
    ("TMS 1x1 Base Tso Ideal free", 0x5b344f77592de4ec),
    ("TMS 1x1 Glsc Tso Ideal free", 0x2dc5cbf9cbcbd870),
    ("TMS 1x1 Base RelaxedFence Ideal free", 0x5b345277592dea05),
    ("TMS 1x1 Glsc RelaxedFence Ideal free", 0x2dc5cef9cbcbdd89),
    ("TMS 1x4 Base Sc Ideal free", 0x7ab59d26144f375c),
    ("TMS 1x4 Glsc Sc Ideal free", 0x7b32ed5149e1942c),
    ("TMS 1x4 Base Tso Ideal free", 0x7ab59e26144f390f),
    ("TMS 1x4 Glsc Tso Ideal free", 0x7b32ee5149e195df),
    ("TMS 1x4 Base RelaxedFence Ideal free", 0x7ab59f26144f3ac2),
    ("TMS 1x4 Glsc RelaxedFence Ideal free", 0x7b32ef5149e19792),
    ("TMS 4x1 Base Sc Ideal free", 0xfb17ed0a839703a5),
    ("TMS 4x1 Glsc Sc Ideal free", 0x19cef3f3a4ca446a),
    ("TMS 4x1 Base Tso Ideal free", 0xfb17ec0a839701f2),
    ("TMS 4x1 Glsc Tso Ideal free", 0x19cef4f3a4ca461d),
    ("TMS 4x1 Base RelaxedFence Ideal free", 0xfb17eb0a8397003f),
    ("TMS 4x1 Glsc RelaxedFence Ideal free", 0x19cef1f3a4ca4104),
    ("TMS 4x4 Base Sc Ideal free", 0x06c09935252f8a1c),
    ("TMS 4x4 Glsc Sc Ideal free", 0xe461a2d89d926c2d),
    ("TMS 4x4 Base Tso Ideal free", 0x06c09a35252f8bcf),
    ("TMS 4x4 Glsc Tso Ideal free", 0xe461a1d89d926a7a),
    ("TMS 4x4 Base RelaxedFence Ideal free", 0x06c09b35252f8d82),
    ("TMS 4x4 Glsc RelaxedFence Ideal free", 0xe461a0d89d9268c7),
    ("TMS 4x4 Base Sc Ring aged", 0xb98ba7eac4275173),
    ("TMS 4x4 Glsc Sc Ring aged", 0x283e82b3380aaced),
    ("TMS 4x4 Base Tso Ring aged", 0xb98ba6eac4274fc0),
    ("TMS 4x4 Glsc Tso Ring aged", 0x283e81b3380aab3a),
    ("TMS 4x4 Base RelaxedFence Ring aged", 0xb98ba9eac42754d9),
    ("TMS 4x4 Glsc RelaxedFence Ring aged", 0x283e80b3380aa987),
];
