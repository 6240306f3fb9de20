//! The disassembler stays injective: distinct instructions render as
//! distinct text, and a program listing has one line per instruction.
//! Nothing parses the text back, but `Workload::fingerprint` hashes a
//! program's listing into the keys of stored results, so two instructions
//! that printed alike would share a key. The corpus is every
//! `ProgramBuilder` emit method (and through them every `Instr` variant),
//! operand edge cases the builder program does not reach, and every
//! operator in every instruction that takes one.

use glsc_isa::{
    AluOp, CmpOp, FpOp, Instr, LaneSel, MReg, Operand, Program, ProgramBuilder, Reg, VReg, VSrc,
};
use std::collections::HashMap;

/// Builds one program exercising every `ProgramBuilder` emit method (and
/// through them every `Instr` variant), with both register and immediate
/// operand forms where the ISA offers a choice.
fn program_with_every_builder_method() -> Program {
    let mut b = ProgramBuilder::new();
    let (r1, r2, r3) = (Reg::new(1), Reg::new(2), Reg::new(3));
    let (v1, v2, v3) = (VReg::new(1), VReg::new(2), VReg::new(3));
    let (f0, f1, f2) = (MReg::new(0), MReg::new(1), MReg::new(2));
    let l = b.here();

    b.li(r1, -42);
    b.mv(r2, r1);
    b.alu(AluOp::Add, r1, r2, r3);
    b.add(r1, r2, 7);
    b.addi(r1, r2, -7);
    b.sub(r1, r2, r3);
    b.mul(r1, r2, 3);
    b.divu(r1, r2, r3);
    b.remu(r1, r2, 5);
    b.and(r1, r2, 0xff);
    b.or(r1, r2, r3);
    b.xor(r1, r2, r3);
    b.shl(r1, r2, 4);
    b.shr(r1, r2, r3);
    b.minu(r1, r2, 9);
    b.fadd(r1, r2, r3);
    b.fsub(r1, r2, r3);
    b.fmul(r1, r2, r3);
    b.fdiv(r1, r2, r3);
    b.cmp(CmpOp::Eq, r1, r2, 5);
    b.cmp(CmpOp::Ne, r1, r2, r3);
    b.fcmp(CmpOp::Lt, r1, r2, r3);
    b.cvt_i2f(r1, r2);
    b.cvt_f2i(r1, r2);
    b.branch(CmpOp::Le, r1, 3, l);
    b.beq(r1, 0, l);
    b.bne(r1, r2, l);
    b.blt(r1, -1, l);
    b.ble(r1, 2, l);
    b.bgt(r1, r2, l);
    b.bge(r1, 0, l);
    b.jmp(l);
    b.bmz(f0, l);
    b.bmnz(f1, l);
    b.barrier();
    b.nop();
    b.fence();
    b.fence_acq();
    b.fence_rel();
    b.ld(r1, r2, 8);
    b.st(r1, r2, -8);
    b.sync_on();
    b.ll(r1, r2, 0);
    b.sc(r1, r2, r3, 4);
    b.sync_off();
    b.valu(AluOp::Max, v1, v2, v3, Some(f0));
    b.vadd(v1, v2, 1, None);
    b.vsub(v1, v2, v3, Some(f1));
    b.vmul(v1, v2, r3, None);
    b.vmod(v1, v2, 3, None);
    b.vshl(v1, v2, 2, Some(f0));
    b.vshr(v1, v2, v3, None);
    b.vand(v1, v2, 1, None);
    b.vfp(FpOp::Min, v1, v2, v3, Some(f2));
    b.vfadd(v1, v2, v3, None);
    b.vfsub(v1, v2, v3, Some(f0));
    b.vfmul(v1, v2, v3, None);
    b.vcmp(CmpOp::Eq, f0, v1, 0, Some(f2));
    b.vcmp(CmpOp::Gt, f0, v1, v2, None);
    b.vfcmp(CmpOp::Ge, f0, v1, v2, Some(f1));
    b.vsplat(v1, r2);
    b.viota(v1);
    b.vextract(r1, v2, 3u8);
    b.vextract(r1, v2, r3);
    b.vinsert(v1, r3, 2u8);
    b.vinsert(v1, r3, r2);
    b.mall(f0);
    b.mclear(f1);
    b.mnot(f0, f1);
    b.mand(f0, f1, f2);
    b.mor(f0, f1, f2);
    b.mxor(f0, f1, f2);
    b.mmov(f0, f1);
    b.mpop(r1, f0);
    b.r2m(f0, r1);
    b.m2r(r1, f0);
    b.vload(v1, r2, 8, Some(f0));
    b.vstore(v1, r2, -64, None);
    b.vgather(v1, r2, v3, Some(f1));
    b.vscatter(v1, r2, v3, None);
    b.vgatherlink(f1, v1, r1, v2, f0);
    b.vscattercond(f1, v1, r1, v2, f1);
    b.halt();
    b.build().unwrap()
}

/// Operand-form edge cases the builder program can't hit naturally:
/// extreme immediates, register 31 / f7 boundaries, and every VSrc form
/// under every mask in one place.
fn operand_edge_cases() -> Vec<Instr> {
    let r31 = Reg::new(31);
    let v31 = VReg::new(31);
    let f7 = MReg::new(7);
    vec![
        Instr::Li {
            rd: r31,
            imm: i64::MIN,
        },
        Instr::Li {
            rd: Reg::new(0),
            imm: i64::MAX,
        },
        Instr::Alu {
            op: AluOp::Shl,
            rd: r31,
            rs: r31,
            src2: Operand::Reg(r31),
        },
        Instr::VAlu {
            op: AluOp::Sub,
            vd: v31,
            vs: v31,
            src2: VSrc::Imm(-9),
            mask: Some(f7),
        },
        Instr::VAlu {
            op: AluOp::Or,
            vd: v31,
            vs: v31,
            src2: VSrc::Bcast(r31),
            mask: Some(f7),
        },
        Instr::VCmp {
            op: CmpOp::Ne,
            fd: f7,
            vs: v31,
            src2: VSrc::Bcast(Reg::new(0)),
            mask: None,
        },
        Instr::VExtract {
            rd: r31,
            vs: v31,
            lane: LaneSel::Imm(15),
        },
        Instr::VInsert {
            vd: v31,
            rs: r31,
            lane: LaneSel::Reg(Reg::new(0)),
        },
        Instr::Load {
            rd: r31,
            base: r31,
            offset: i64::MIN,
        },
        Instr::Store {
            rs: r31,
            base: r31,
            offset: i64::MAX,
        },
    ]
}

/// Every operator in every instruction that takes one, on the same
/// operands, so two operators sharing a mnemonic would collide.
fn every_operator() -> Vec<Instr> {
    const ALU: [AluOp; 12] = [
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
    const FP: [FpOp; 6] = [
        FpOp::Add,
        FpOp::Sub,
        FpOp::Mul,
        FpOp::Div,
        FpOp::Min,
        FpOp::Max,
    ];
    const CMP: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let (r1, r2, r3) = (Reg::new(1), Reg::new(2), Reg::new(3));
    let (v1, v2, v3) = (VReg::new(1), VReg::new(2), VReg::new(3));
    let f0 = MReg::new(0);
    let mut b = ProgramBuilder::new();
    let l = b.here();
    for op in ALU {
        b.alu(op, r1, r2, r3);
        b.valu(op, v1, v2, v3, None);
    }
    for op in FP {
        b.vfp(op, v1, v2, v3, None);
    }
    for op in CMP {
        b.cmp(op, r1, r2, r3);
        b.fcmp(op, r1, r2, r3);
        b.vcmp(op, f0, v1, v2, None);
        b.vfcmp(op, f0, v1, v2, None);
        b.branch(op, r1, r2, l);
    }
    let p = b.build().unwrap();
    let scalar_fp = FP.map(|op| Instr::Fp {
        op,
        rd: r1,
        rs: r2,
        rt: r3,
    });
    p.iter().copied().chain(scalar_fp).collect()
}

#[test]
fn distinct_instructions_render_as_distinct_text() {
    let p = program_with_every_builder_method();
    let corpus = p
        .iter()
        .copied()
        .chain(operand_edge_cases())
        .chain(every_operator());
    let mut seen: HashMap<String, Instr> = HashMap::new();
    for i in corpus {
        let text = i.to_string();
        if let Some(prev) = seen.insert(text.clone(), i) {
            assert_eq!(prev, i, "{text:?} renders two distinct instructions");
        }
    }
    assert!(seen.len() > 130, "corpus shrank to {} texts", seen.len());
}

#[test]
fn listing_has_one_line_per_instruction_with_its_sync_marker() {
    let p = program_with_every_builder_method();
    let listing = p.to_string();
    let lines: Vec<&str> = listing.lines().collect();
    assert_eq!(lines.len(), p.len(), "one line per instruction");
    for (pc, line) in lines.iter().enumerate() {
        let text = p.fetch(pc).unwrap();
        let sync = if p.is_sync(pc) { " ; sync" } else { "" };
        assert_eq!(*line, format!("{pc:5}: {text}{sync}"), "pc {pc}");
    }
    assert!(
        (0..p.len()).any(|pc| p.is_sync(pc)),
        "the corpus must hold a sync region"
    );
}
