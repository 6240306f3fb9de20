//! Human-readable instruction and program formatting.

use crate::instr::{AluOp, CmpOp, FpOp, Instr, LaneSel, Operand, VSrc};
use crate::program::Program;
use std::fmt;

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

impl fmt::Display for VSrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VSrc::Vec(v) => write!(f, "{v}"),
            VSrc::Bcast(r) => write!(f, "{r}.bcast"),
            VSrc::Imm(v) => write!(f, "{v}"),
        }
    }
}

impl fmt::Display for LaneSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaneSel::Imm(v) => write!(f, "[{v}]"),
            LaneSel::Reg(r) => write!(f, "[{r}]"),
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "divu",
            AluOp::Rem => "remu",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Min => "minu",
            AluOp::Max => "maxu",
        };
        f.write_str(s)
    }
}

impl fmt::Display for FpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FpOp::Add => "fadd",
            FpOp::Sub => "fsub",
            FpOp::Mul => "fmul",
            FpOp::Div => "fdiv",
            FpOp::Min => "fmin",
            FpOp::Max => "fmax",
        };
        f.write_str(s)
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        };
        f.write_str(s)
    }
}

fn mask_suffix(m: &Option<crate::MReg>) -> String {
    match m {
        Some(f) => format!(" ?{f}"),
        None => String::new(),
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        match self {
            Li { rd, imm } => write!(f, "li {rd}, {imm}"),
            Alu { op, rd, rs, src2 } => write!(f, "{op} {rd}, {rs}, {src2}"),
            Fp { op, rd, rs, rt } => write!(f, "{op} {rd}, {rs}, {rt}"),
            Cmp { op, rd, rs, src2 } => write!(f, "cmp.{op} {rd}, {rs}, {src2}"),
            FCmp { op, rd, rs, rt } => write!(f, "fcmp.{op} {rd}, {rs}, {rt}"),
            CvtIntToF32 { rd, rs } => write!(f, "cvt.i2f {rd}, {rs}"),
            CvtF32ToInt { rd, rs } => write!(f, "cvt.f2i {rd}, {rs}"),
            Branch {
                op,
                rs,
                src2,
                target,
            } => write!(f, "b{op} {rs}, {src2}, {target}"),
            Jump { target } => write!(f, "jmp {target}"),
            BranchMaskZero { f: m, target } => write!(f, "bmz {m}, {target}"),
            BranchMaskNotZero { f: m, target } => write!(f, "bmnz {m}, {target}"),
            Halt => write!(f, "halt"),
            Barrier => write!(f, "barrier"),
            Nop => write!(f, "nop"),
            Fence { kind } => match kind {
                crate::FenceKind::Full => write!(f, "fence"),
                crate::FenceKind::Acquire => write!(f, "fence.acq"),
                crate::FenceKind::Release => write!(f, "fence.rel"),
            },
            Load { rd, base, offset } => write!(f, "ld {rd}, {offset}({base})"),
            Store { rs, base, offset } => write!(f, "st {rs}, {offset}({base})"),
            LoadLinked { rd, base, offset } => write!(f, "ll {rd}, {offset}({base})"),
            StoreCond {
                rd,
                rs,
                base,
                offset,
            } => write!(f, "sc {rd}, {rs}, {offset}({base})"),
            VAlu {
                op,
                vd,
                vs,
                src2,
                mask,
            } => {
                write!(f, "v{op} {vd}, {vs}, {src2}{}", mask_suffix(mask))
            }
            VFp {
                op,
                vd,
                vs,
                vt,
                mask,
            } => {
                write!(f, "v{op} {vd}, {vs}, {vt}{}", mask_suffix(mask))
            }
            VCmp {
                op,
                fd,
                vs,
                src2,
                mask,
            } => {
                write!(f, "vcmp.{op} {fd}, {vs}, {src2}{}", mask_suffix(mask))
            }
            VFCmp {
                op,
                fd,
                vs,
                vt,
                mask,
            } => {
                write!(f, "vfcmp.{op} {fd}, {vs}, {vt}{}", mask_suffix(mask))
            }
            VSplat { vd, rs } => write!(f, "vsplat {vd}, {rs}"),
            VIota { vd } => write!(f, "viota {vd}"),
            VExtract { rd, vs, lane } => write!(f, "vextract {rd}, {vs}{lane}"),
            VInsert { vd, rs, lane } => write!(f, "vinsert {vd}{lane}, {rs}"),
            MSetAll { f: m } => write!(f, "mall {m}"),
            MClear { f: m } => write!(f, "mclear {m}"),
            MNot { fd, fs } => write!(f, "mnot {fd}, {fs}"),
            MAnd { fd, fa, fb } => write!(f, "mand {fd}, {fa}, {fb}"),
            MOr { fd, fa, fb } => write!(f, "mor {fd}, {fa}, {fb}"),
            MXor { fd, fa, fb } => write!(f, "mxor {fd}, {fa}, {fb}"),
            MMov { fd, fs } => write!(f, "mmov {fd}, {fs}"),
            MPopcount { rd, f: m } => write!(f, "mpop {rd}, {m}"),
            MFromReg { f: m, rs } => write!(f, "r2m {m}, {rs}"),
            MToReg { rd, f: m } => write!(f, "m2r {rd}, {m}"),
            VLoad {
                vd,
                base,
                offset,
                mask,
            } => {
                write!(f, "vload {vd}, {offset}({base}){}", mask_suffix(mask))
            }
            VStore {
                vs,
                base,
                offset,
                mask,
            } => {
                write!(f, "vstore {vs}, {offset}({base}){}", mask_suffix(mask))
            }
            VGather {
                vd,
                base,
                vidx,
                mask,
            } => {
                write!(f, "vgather {vd}, ({base})[{vidx}]{}", mask_suffix(mask))
            }
            VScatter {
                vs,
                base,
                vidx,
                mask,
            } => {
                write!(f, "vscatter {vs}, ({base})[{vidx}]{}", mask_suffix(mask))
            }
            VGatherLink {
                fd,
                vd,
                base,
                vidx,
                fsrc,
            } => {
                write!(f, "vgatherlink {fd}, {vd}, ({base})[{vidx}], {fsrc}")
            }
            VScatterCond {
                fd,
                vs,
                base,
                vidx,
                fsrc,
            } => {
                write!(f, "vscattercond {fd}, {vs}, ({base})[{vidx}], {fsrc}")
            }
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (pc, i) in self.instrs.iter().enumerate() {
            let sync = if self.sync[pc] { " ; sync" } else { "" };
            writeln!(f, "{pc:5}: {i}{sync}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{CmpOp, MReg, ProgramBuilder, Reg, VReg};

    #[test]
    fn disassembly_renders_key_mnemonics() {
        let mut b = ProgramBuilder::new();
        let (r1, v1, v2, f0, f1) = (
            Reg::new(1),
            VReg::new(1),
            VReg::new(2),
            MReg::new(0),
            MReg::new(1),
        );
        b.li(r1, 42);
        b.vgatherlink(f1, v1, r1, v2, f0);
        b.vadd(v1, v1, 1, Some(f1));
        b.vscattercond(f1, v1, r1, v2, f1);
        b.vcmp(CmpOp::Eq, f0, v1, 0, None);
        b.sync_on();
        b.ll(r1, r1, 4);
        b.sync_off();
        b.halt();
        let p = b.build().unwrap();
        let text = p.to_string();
        assert!(text.contains("li r1, 42"));
        assert!(text.contains("vgatherlink f1, v1, (r1)[v2], f0"));
        assert!(text.contains("vadd v1, v1, 1 ?f1"));
        assert!(text.contains("vscattercond f1, v1, (r1)[v2], f1"));
        assert!(text.contains("vcmp.eq f0, v1, 0"));
        assert!(text.contains("ll r1, 4(r1) ; sync"));
        assert!(text.contains("halt"));
    }
}
