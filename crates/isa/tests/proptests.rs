//! Randomized property tests for the assembler and program container.
//!
//! These were originally written with `proptest`; the offline build
//! environment cannot fetch it, so they now run as seeded loops over
//! `glsc-rng`. Each case prints its seed on failure for reproduction.

use glsc_isa::{AluOp, CmpOp, Instr, MReg, Operand, ProgramBuilder, Reg, VReg, VSrc};
use glsc_rng::rngs::StdRng;
use glsc_rng::{Rng, SeedableRng};

/// Any sequence of emissions assembles and keeps the order and count of
/// what was emitted: instruction `i` of the program is the `i`-th emission.
#[test]
fn arbitrary_emissions_assemble() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x15A_0001 ^ seed);
        let n = rng.random_range(1..100usize);
        let ops: Vec<(usize, u8, u8, i32)> = (0..n)
            .map(|_| {
                (
                    rng.random_range(0..8usize),
                    rng.random_range(0..32u8),
                    rng.random_range(0..32u8),
                    rng.random::<u32>() as i32,
                )
            })
            .collect();
        let mut b = ProgramBuilder::new();
        let mut expected = Vec::with_capacity(ops.len() + 1);
        for (kind, x, y, imm) in &ops {
            let (rx, ry) = (Reg::new(x % 32), Reg::new(y % 32));
            let (vx, vy) = (VReg::new(x % 32), VReg::new(y % 32));
            let (fx, fy) = (MReg::new(x % 8), MReg::new(y % 8));
            let imm = *imm as i64;
            expected.push(match kind {
                0 => {
                    b.li(rx, imm);
                    Instr::Li { rd: rx, imm }
                }
                1 => {
                    b.alu(AluOp::Add, rx, ry, imm);
                    Instr::Alu {
                        op: AluOp::Add,
                        rd: rx,
                        rs: ry,
                        src2: Operand::Imm(imm),
                    }
                }
                2 => {
                    b.cmp(CmpOp::Lt, rx, ry, imm);
                    Instr::Cmp {
                        op: CmpOp::Lt,
                        rd: rx,
                        rs: ry,
                        src2: Operand::Imm(imm),
                    }
                }
                3 => {
                    b.vadd(vx, vy, imm, Some(fx));
                    Instr::VAlu {
                        op: AluOp::Add,
                        vd: vx,
                        vs: vy,
                        src2: VSrc::Imm(imm),
                        mask: Some(fx),
                    }
                }
                4 => {
                    b.mand(fx, fy, fx);
                    Instr::MAnd {
                        fd: fx,
                        fa: fy,
                        fb: fx,
                    }
                }
                5 => {
                    b.ld(rx, ry, imm & 0xfff);
                    Instr::Load {
                        rd: rx,
                        base: ry,
                        offset: imm & 0xfff,
                    }
                }
                6 => {
                    b.vgatherlink(fx, vx, rx, vy, fy);
                    Instr::VGatherLink {
                        fd: fx,
                        vd: vx,
                        base: rx,
                        vidx: vy,
                        fsrc: fy,
                    }
                }
                _ => {
                    b.vscattercond(fx, vx, rx, vy, fy);
                    Instr::VScatterCond {
                        fd: fx,
                        vs: vx,
                        base: rx,
                        vidx: vy,
                        fsrc: fy,
                    }
                }
            });
        }
        b.halt();
        expected.push(Instr::Halt);
        let p = b.build().expect("assembles");
        assert_eq!(p.len(), ops.len() + 1, "seed {seed}");
        for (pc, want) in expected.iter().enumerate() {
            assert_eq!(p.fetch(pc), Some(want), "seed {seed}, pc {pc}");
        }
    }
}

/// Labels bound at arbitrary positions resolve to those positions.
#[test]
fn labels_resolve_to_bind_positions() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x15A_0002 ^ seed);
        let n = rng.random_range(1..10usize);
        let mut positions: Vec<usize> = (0..n).map(|_| rng.random_range(0..50usize)).collect();
        positions.sort_unstable();
        positions.dedup();
        let mut b = ProgramBuilder::new();
        let mut pending: Vec<(usize, glsc_isa::Label)> = Vec::new();
        for pos in &positions {
            // Emit nops until the desired position, then bind a label.
            while b.pc() < *pos {
                b.nop();
            }
            let l = b.label();
            b.bind(l).unwrap();
            pending.push((*pos, l));
        }
        // Reference every label so build() validates them.
        for (_, l) in &pending {
            b.jmp(*l);
        }
        b.halt();
        let p = b.build().unwrap();
        for (pos, l) in pending {
            assert_eq!(p.target(l), pos, "seed {seed}");
        }
    }
}

/// Sync regions flag exactly the instructions inside them.
#[test]
fn sync_regions_flag_exact_ranges() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x15A_0003 ^ seed);
        let n = rng.random_range(1..20usize);
        let segments: Vec<(usize, bool)> = (0..n)
            .map(|_| (rng.random_range(1..10usize), rng.random::<bool>()))
            .collect();
        let mut b = ProgramBuilder::new();
        let mut expected = Vec::new();
        for (len, sync) in &segments {
            if *sync {
                b.sync_on();
            } else {
                b.sync_off();
            }
            for _ in 0..*len {
                b.nop();
                expected.push(*sync);
            }
        }
        b.sync_off();
        b.halt();
        expected.push(false);
        let p = b.build().unwrap();
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(p.is_sync(i), *want, "seed {seed}, pc {i}");
        }
    }
}
