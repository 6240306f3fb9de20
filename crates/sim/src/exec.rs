//! Functional semantics of the compute (non-memory) instructions.
//!
//! These routines mutate a [`ThreadArch`] and report what the pipeline
//! needs for timing: the written scalar register (for the scoreboard), the
//! result latency, and control-flow outcomes. Memory instructions are
//! dispatched by the pipeline (`cpu.rs`) to the LSU/GSU models instead.

use crate::arch::ThreadArch;
use glsc_isa::{AluOp, CmpOp, FenceKind, FpOp, Instr, LaneSel, Operand, Program, Reg, VSrc};

/// Functional-unit result latencies in cycles.
mod lat {
    use glsc_isa::{AluOp, FpOp};

    /// Simple integer ALU (add/sub/logic/shift/compare/move).
    pub const INT_ALU: u64 = 1;
    /// Integer multiply.
    const INT_MUL: u64 = 3;
    /// Integer divide / remainder.
    const INT_DIV: u64 = 10;
    /// Floating add/sub/min/max.
    pub const FP_ADD: u64 = 4;
    /// Floating multiply.
    const FP_MUL: u64 = 4;
    /// Floating divide.
    const FP_DIV: u64 = 12;
    /// Int<->float conversions.
    pub const CVT: u64 = 2;
    /// Mask-register operations.
    pub const MASK_OP: u64 = 1;

    /// Latency of an integer ALU op.
    pub fn alu(op: AluOp) -> u64 {
        match op {
            AluOp::Mul => INT_MUL,
            AluOp::Div | AluOp::Rem => INT_DIV,
            _ => INT_ALU,
        }
    }

    /// Latency of a floating-point op.
    pub fn fp(op: FpOp) -> u64 {
        match op {
            FpOp::Div => FP_DIV,
            FpOp::Mul => FP_MUL,
            _ => FP_ADD,
        }
    }
}

/// Outcome of executing one compute instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// Result written; `dst` (if any) becomes ready after `latency`;
    /// `serialize` requests that the thread not issue again until the
    /// latency elapses (used for vector ALU ops, which have no per-lane
    /// scoreboard).
    Compute {
        /// Written scalar register, for scoreboard tracking.
        dst: Option<Reg>,
        /// Result latency in cycles.
        latency: u64,
        /// Whether the thread must serialize on this result.
        serialize: bool,
    },
    /// Branch evaluated taken; `pc` already redirected.
    Taken,
    /// Branch evaluated not-taken; `pc` advanced.
    NotTaken,
    /// Thread finished.
    Halt,
    /// Thread reached a barrier (pc already advanced past it).
    Barrier,
    /// A memory instruction: the caller must dispatch it.
    Memory,
}

/// 64-bit scalar integer ALU semantics.
pub fn scalar_alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => a.checked_div(b).unwrap_or(u64::MAX),
        AluOp::Rem => a.checked_rem(b).unwrap_or(a),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl(b as u32),
        AluOp::Shr => a.wrapping_shr(b as u32),
        AluOp::Min => a.min(b),
        AluOp::Max => a.max(b),
    }
}

/// 32-bit lane integer ALU semantics.
pub fn lane_alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => a.checked_div(b).unwrap_or(u32::MAX),
        AluOp::Rem => a.checked_rem(b).unwrap_or(a),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl(b),
        AluOp::Shr => a.wrapping_shr(b),
        AluOp::Min => a.min(b),
        AluOp::Max => a.max(b),
    }
}

/// f32 lane semantics (also used for the scalar FP unit, which operates on
/// the low 32 bits of a scalar register).
pub fn lane_fp(op: FpOp, a: f32, b: f32) -> f32 {
    match op {
        FpOp::Add => a + b,
        FpOp::Sub => a - b,
        FpOp::Mul => a * b,
        FpOp::Div => a / b,
        FpOp::Min => a.min(b),
        FpOp::Max => a.max(b),
    }
}

/// Signed integer comparison.
pub fn cmp_eval(op: CmpOp, a: i64, b: i64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// Float comparison (IEEE semantics: comparisons with NaN are false except
/// `Ne`).
pub fn fcmp_eval(op: CmpOp, a: f32, b: f32) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

fn operand(arch: &ThreadArch, o: Operand) -> u64 {
    match o {
        Operand::Reg(r) => arch.reg(r),
        Operand::Imm(v) => v as u64,
    }
}

fn vsrc_lane(arch: &ThreadArch, s: VSrc, lane: usize) -> u32 {
    match s {
        VSrc::Vec(v) => arch.vreg(v)[lane],
        VSrc::Bcast(r) => arch.reg(r) as u32,
        VSrc::Imm(v) => v as u32,
    }
}

fn lane_index(arch: &ThreadArch, sel: LaneSel) -> usize {
    match sel {
        LaneSel::Imm(v) => v as usize,
        LaneSel::Reg(r) => arch.reg(r) as usize,
    }
}

/// Executes one compute or control instruction; returns [`StepOutcome`].
/// The PC is advanced (or redirected for control flow). Memory
/// instructions are left untouched and flagged [`StepOutcome::Memory`].
pub fn step_compute(arch: &mut ThreadArch, instr: &Instr, program: &Program) -> StepOutcome {
    use Instr::*;
    let width = arch.width();
    match *instr {
        Li { rd, imm } => {
            arch.set_reg(rd, imm as u64);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: Some(rd),
                latency: lat::INT_ALU,
                serialize: false,
            }
        }
        Alu { op, rd, rs, src2 } => {
            let v = scalar_alu(op, arch.reg(rs), operand(arch, src2));
            arch.set_reg(rd, v);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: Some(rd),
                latency: lat::alu(op),
                serialize: false,
            }
        }
        Fp { op, rd, rs, rt } => {
            let a = f32::from_bits(arch.reg(rs) as u32);
            let b = f32::from_bits(arch.reg(rt) as u32);
            arch.set_reg(rd, lane_fp(op, a, b).to_bits() as u64);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: Some(rd),
                latency: lat::fp(op),
                serialize: false,
            }
        }
        Cmp { op, rd, rs, src2 } => {
            let v = cmp_eval(op, arch.reg(rs) as i64, operand(arch, src2) as i64);
            arch.set_reg(rd, v as u64);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: Some(rd),
                latency: lat::INT_ALU,
                serialize: false,
            }
        }
        FCmp { op, rd, rs, rt } => {
            let a = f32::from_bits(arch.reg(rs) as u32);
            let b = f32::from_bits(arch.reg(rt) as u32);
            arch.set_reg(rd, fcmp_eval(op, a, b) as u64);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: Some(rd),
                latency: lat::INT_ALU,
                serialize: false,
            }
        }
        CvtIntToF32 { rd, rs } => {
            let v = (arch.reg(rs) as i64) as f32;
            arch.set_reg(rd, v.to_bits() as u64);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: Some(rd),
                latency: lat::CVT,
                serialize: false,
            }
        }
        CvtF32ToInt { rd, rs } => {
            let v = f32::from_bits(arch.reg(rs) as u32) as i64;
            arch.set_reg(rd, v as u64);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: Some(rd),
                latency: lat::CVT,
                serialize: false,
            }
        }
        Branch {
            op,
            rs,
            src2,
            target,
        } => {
            if cmp_eval(op, arch.reg(rs) as i64, operand(arch, src2) as i64) {
                arch.pc = program.target(target);
                StepOutcome::Taken
            } else {
                arch.pc += 1;
                StepOutcome::NotTaken
            }
        }
        Jump { target } => {
            arch.pc = program.target(target);
            StepOutcome::Taken
        }
        BranchMaskZero { f, target } => {
            if arch.mreg(f) == 0 {
                arch.pc = program.target(target);
                StepOutcome::Taken
            } else {
                arch.pc += 1;
                StepOutcome::NotTaken
            }
        }
        BranchMaskNotZero { f, target } => {
            if arch.mreg(f) != 0 {
                arch.pc = program.target(target);
                StepOutcome::Taken
            } else {
                arch.pc += 1;
                StepOutcome::NotTaken
            }
        }
        Halt => StepOutcome::Halt,
        Barrier => {
            arch.pc += 1;
            StepOutcome::Barrier
        }
        Nop => {
            arch.pc += 1;
            StepOutcome::Compute {
                dst: None,
                latency: lat::INT_ALU,
                serialize: false,
            }
        }
        Fence { .. } => {
            // Ordering-only: the pipeline's issue stage holds a fence
            // until its drain condition clears (cpu.rs), so by the time
            // it executes it is a one-cycle no-op.
            arch.pc += 1;
            StepOutcome::Compute {
                dst: None,
                latency: lat::INT_ALU,
                serialize: false,
            }
        }
        VAlu {
            op,
            vd,
            vs,
            src2,
            mask,
        } => {
            let m = mask.map_or(arch.full_mask(), |f| arch.mreg(f));
            for lane in 0..width {
                if m & (1 << lane) != 0 {
                    let a = arch.vreg(vs)[lane];
                    let b = vsrc_lane(arch, src2, lane);
                    arch.set_vlane(vd, lane, lane_alu(op, a, b));
                }
            }
            arch.pc += 1;
            StepOutcome::Compute {
                dst: None,
                latency: lat::INT_ALU,
                serialize: true,
            }
        }
        VFp {
            op,
            vd,
            vs,
            vt,
            mask,
        } => {
            let m = mask.map_or(arch.full_mask(), |f| arch.mreg(f));
            for lane in 0..width {
                if m & (1 << lane) != 0 {
                    let a = f32::from_bits(arch.vreg(vs)[lane]);
                    let b = f32::from_bits(arch.vreg(vt)[lane]);
                    arch.set_vlane(vd, lane, lane_fp(op, a, b).to_bits());
                }
            }
            arch.pc += 1;
            StepOutcome::Compute {
                dst: None,
                latency: lat::fp(op),
                serialize: true,
            }
        }
        VCmp {
            op,
            fd,
            vs,
            src2,
            mask,
        } => {
            let m = mask.map_or(arch.full_mask(), |f| arch.mreg(f));
            let mut out = 0u32;
            for lane in 0..width {
                if m & (1 << lane) != 0 {
                    let a = arch.vreg(vs)[lane] as i32 as i64;
                    let b = vsrc_lane(arch, src2, lane) as i32 as i64;
                    if cmp_eval(op, a, b) {
                        out |= 1 << lane;
                    }
                }
            }
            arch.set_mreg(fd, out);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: None,
                latency: lat::INT_ALU,
                serialize: true,
            }
        }
        VFCmp {
            op,
            fd,
            vs,
            vt,
            mask,
        } => {
            let m = mask.map_or(arch.full_mask(), |f| arch.mreg(f));
            let mut out = 0u32;
            for lane in 0..width {
                if m & (1 << lane) != 0 {
                    let a = f32::from_bits(arch.vreg(vs)[lane]);
                    let b = f32::from_bits(arch.vreg(vt)[lane]);
                    if fcmp_eval(op, a, b) {
                        out |= 1 << lane;
                    }
                }
            }
            arch.set_mreg(fd, out);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: None,
                latency: lat::FP_ADD,
                serialize: true,
            }
        }
        VSplat { vd, rs } => {
            let v = arch.reg(rs) as u32;
            for lane in 0..width {
                arch.set_vlane(vd, lane, v);
            }
            arch.pc += 1;
            StepOutcome::Compute {
                dst: None,
                latency: lat::INT_ALU,
                serialize: true,
            }
        }
        VIota { vd } => {
            for lane in 0..width {
                arch.set_vlane(vd, lane, lane as u32);
            }
            arch.pc += 1;
            StepOutcome::Compute {
                dst: None,
                latency: lat::INT_ALU,
                serialize: true,
            }
        }
        VExtract { rd, vs, lane } => {
            let l = lane_index(arch, lane);
            assert!(
                l < width,
                "vextract lane {l} out of range for width {width}"
            );
            let v = arch.vreg(vs)[l];
            arch.set_reg(rd, v as u64);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: Some(rd),
                latency: lat::INT_ALU,
                serialize: false,
            }
        }
        VInsert { vd, rs, lane } => {
            let l = lane_index(arch, lane);
            assert!(l < width, "vinsert lane {l} out of range for width {width}");
            let v = arch.reg(rs) as u32;
            arch.set_vlane(vd, l, v);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: None,
                latency: lat::INT_ALU,
                serialize: true,
            }
        }
        MSetAll { f } => {
            let m = arch.full_mask();
            arch.set_mreg(f, m);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: None,
                latency: lat::MASK_OP,
                serialize: false,
            }
        }
        MClear { f } => {
            arch.set_mreg(f, 0);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: None,
                latency: lat::MASK_OP,
                serialize: false,
            }
        }
        MNot { fd, fs } => {
            let v = !arch.mreg(fs);
            arch.set_mreg(fd, v);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: None,
                latency: lat::MASK_OP,
                serialize: false,
            }
        }
        MAnd { fd, fa, fb } => {
            let v = arch.mreg(fa) & arch.mreg(fb);
            arch.set_mreg(fd, v);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: None,
                latency: lat::MASK_OP,
                serialize: false,
            }
        }
        MOr { fd, fa, fb } => {
            let v = arch.mreg(fa) | arch.mreg(fb);
            arch.set_mreg(fd, v);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: None,
                latency: lat::MASK_OP,
                serialize: false,
            }
        }
        MXor { fd, fa, fb } => {
            let v = arch.mreg(fa) ^ arch.mreg(fb);
            arch.set_mreg(fd, v);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: None,
                latency: lat::MASK_OP,
                serialize: false,
            }
        }
        MMov { fd, fs } => {
            let v = arch.mreg(fs);
            arch.set_mreg(fd, v);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: None,
                latency: lat::MASK_OP,
                serialize: false,
            }
        }
        MPopcount { rd, f } => {
            let v = arch.mreg(f).count_ones() as u64;
            arch.set_reg(rd, v);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: Some(rd),
                latency: lat::MASK_OP,
                serialize: false,
            }
        }
        MFromReg { f, rs } => {
            let v = arch.reg(rs) as u32;
            arch.set_mreg(f, v);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: None,
                latency: lat::MASK_OP,
                serialize: false,
            }
        }
        MToReg { rd, f } => {
            let v = arch.mreg(f) as u64;
            arch.set_reg(rd, v);
            arch.pc += 1;
            StepOutcome::Compute {
                dst: Some(rd),
                latency: lat::MASK_OP,
                serialize: false,
            }
        }
        Load { .. }
        | Store { .. }
        | LoadLinked { .. }
        | StoreCond { .. }
        | VLoad { .. }
        | VStore { .. }
        | VGather { .. }
        | VScatter { .. }
        | VGatherLink { .. }
        | VScatterCond { .. } => StepOutcome::Memory,
    }
}

/// A loaded program together with the issue facts of each instruction,
/// decoded once per [`Machine::load_program`](crate::Machine::load_program)
/// instead of on every cycle a thread looks at its next instruction.
#[derive(Debug)]
pub(crate) struct Code {
    /// The program itself.
    pub(crate) program: Program,
    /// `decoded[pc]` describes `program.fetch(pc)`.
    decoded: Vec<Decoded>,
}

impl Code {
    /// Decodes `program`.
    pub(crate) fn new(program: Program) -> Self {
        let decoded = program
            .iter()
            .enumerate()
            .map(|(pc, instr)| Decoded::of(instr, program.is_sync(pc)))
            .collect();
        Self { program, decoded }
    }

    /// The issue facts of the instruction at `pc`; `None` past the end
    /// (a thread that runs off the end halts when it next issues).
    pub(crate) fn at(&self, pc: usize) -> Option<&Decoded> {
        self.decoded.get(pc)
    }
}

/// What the issue stage checks before an instruction may issue.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Decoded {
    /// Scalar registers the scoreboard checks, in check order: the
    /// sources, then the destination (for WAW stalls). Vector and mask
    /// registers need no scoreboard: their producers either complete
    /// immediately or block the thread.
    regs: [Reg; 3],
    /// How many entries of `regs` are live.
    n_regs: u8,
    /// Whether the instruction is inside a synchronization region.
    pub(crate) sync: bool,
    /// The memory-unit condition the instruction also waits on.
    pub(crate) gate: Gate,
}

/// The memory-unit condition an instruction waits on at issue, after its
/// registers are ready (DESIGN.md §17).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Gate {
    /// Nothing beyond the registers.
    Free,
    /// A plain store: a free write-buffer slot.
    Store,
    /// A barrier: the thread's buffered stores have drained.
    Barrier,
    /// A fence of this kind: its drain condition holds.
    Fence(FenceKind),
}

impl Decoded {
    fn of(instr: &Instr, sync: bool) -> Self {
        use Instr::*;
        let mut regs = [Reg::new(0); 3];
        let mut n = 0;
        let mut push = |r: Reg| {
            regs[n] = r;
            n += 1;
        };
        match *instr {
            Li { .. } | Halt | Barrier | Nop | Fence { .. } | Jump { .. } => {}
            Alu { rs, src2, .. } | Cmp { rs, src2, .. } | Branch { rs, src2, .. } => {
                push(rs);
                if let Operand::Reg(r) = src2 {
                    push(r);
                }
            }
            Fp { rs, rt, .. } | FCmp { rs, rt, .. } => {
                push(rs);
                push(rt);
            }
            CvtIntToF32 { rs, .. } | CvtF32ToInt { rs, .. } => push(rs),
            BranchMaskZero { .. } | BranchMaskNotZero { .. } => {}
            Load { base, .. } | LoadLinked { base, .. } => push(base),
            Store { rs, base, .. } | StoreCond { rs, base, .. } => {
                push(rs);
                push(base);
            }
            VAlu { src2, .. } | VCmp { src2, .. } => {
                if let VSrc::Bcast(r) = src2 {
                    push(r);
                }
            }
            VFp { .. } | VFCmp { .. } | VIota { .. } => {}
            VSplat { rs, .. } => push(rs),
            VExtract { lane, .. } => {
                if let LaneSel::Reg(r) = lane {
                    push(r);
                }
            }
            VInsert { rs, lane, .. } => {
                push(rs);
                if let LaneSel::Reg(r) = lane {
                    push(r);
                }
            }
            MSetAll { .. }
            | MClear { .. }
            | MNot { .. }
            | MAnd { .. }
            | MOr { .. }
            | MXor { .. }
            | MMov { .. }
            | MPopcount { .. }
            | MToReg { .. } => {}
            MFromReg { rs, .. } => push(rs),
            VLoad { base, .. }
            | VStore { base, .. }
            | VGather { base, .. }
            | VScatter { base, .. }
            | VGatherLink { base, .. }
            | VScatterCond { base, .. } => push(base),
        }
        // The scalar destination written at issue time; memory
        // destinations are marked pending by the pipeline.
        match *instr {
            Li { rd, .. }
            | Alu { rd, .. }
            | Fp { rd, .. }
            | Cmp { rd, .. }
            | FCmp { rd, .. }
            | CvtIntToF32 { rd, .. }
            | CvtF32ToInt { rd, .. }
            | MPopcount { rd, .. }
            | MToReg { rd, .. }
            | VExtract { rd, .. }
            | Load { rd, .. }
            | LoadLinked { rd, .. }
            | StoreCond { rd, .. } => push(rd),
            _ => {}
        }
        let gate = match *instr {
            Store { .. } => Gate::Store,
            Barrier => Gate::Barrier,
            Fence { kind } => Gate::Fence(kind),
            _ => Gate::Free,
        };
        Self {
            regs,
            n_regs: n as u8,
            sync,
            gate,
        }
    }

    /// The scoreboard registers, in check order.
    pub(crate) fn regs(&self) -> &[Reg] {
        &self.regs[..self.n_regs as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsc_isa::{MReg, ProgramBuilder, VReg};

    fn empty_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn scalar_alu_edge_cases() {
        assert_eq!(scalar_alu(AluOp::Add, u64::MAX, 1), 0);
        assert_eq!(scalar_alu(AluOp::Div, 7, 0), u64::MAX);
        assert_eq!(scalar_alu(AluOp::Rem, 7, 0), 7);
        assert_eq!(scalar_alu(AluOp::Shl, 1, 4), 16);
        assert_eq!(scalar_alu(AluOp::Min, 3, 9), 3);
    }

    #[test]
    fn latency_selectors() {
        assert_eq!(lat::alu(AluOp::Add), 1);
        assert_eq!(lat::alu(AluOp::Mul), 3);
        assert_eq!(lat::alu(AluOp::Rem), 10);
        assert_eq!(lat::fp(FpOp::Add), 4);
        assert_eq!(lat::fp(FpOp::Div), 12);
    }

    #[test]
    fn lane_alu_wraps_at_32_bits() {
        assert_eq!(lane_alu(AluOp::Add, u32::MAX, 1), 0);
        assert_eq!(lane_alu(AluOp::Rem, 10, 3), 1);
        assert_eq!(lane_alu(AluOp::Div, 1, 0), u32::MAX);
    }

    #[test]
    fn masked_vadd_preserves_inactive_lanes() {
        let mut a = ThreadArch::new(4);
        let p = empty_program();
        a.set_vreg(VReg::new(1), &[10, 20, 30, 40]);
        a.set_mreg(MReg::new(0), 0b0101);
        let i = Instr::VAlu {
            op: AluOp::Add,
            vd: VReg::new(1),
            vs: VReg::new(1),
            src2: VSrc::Imm(1),
            mask: Some(MReg::new(0)),
        };
        let out = step_compute(&mut a, &i, &p);
        assert!(matches!(
            out,
            StepOutcome::Compute {
                serialize: true,
                ..
            }
        ));
        assert_eq!(a.vreg(VReg::new(1)), &[11, 20, 31, 40]);
    }

    #[test]
    fn vcmp_restricted_to_input_mask() {
        let mut a = ThreadArch::new(4);
        let p = empty_program();
        a.set_vreg(VReg::new(2), &[0, 0, 5, 0]);
        a.set_mreg(MReg::new(1), 0b0110);
        let i = Instr::VCmp {
            op: CmpOp::Eq,
            fd: MReg::new(2),
            vs: VReg::new(2),
            src2: VSrc::Imm(0),
            mask: Some(MReg::new(1)),
        };
        step_compute(&mut a, &i, &p);
        // Lane 0 equals 0 but is masked off; lane 1 equals 0 and is active;
        // lane 2 is 5 (no match); lane 3 masked off.
        assert_eq!(a.mreg(MReg::new(2)), 0b0010);
    }

    #[test]
    fn branches_redirect_pc() {
        let mut b = ProgramBuilder::new();
        let r = Reg::new(1);
        let l = b.label();
        b.beq(r, 0, l); // pc 0
        b.nop(); // pc 1
        b.bind(l).unwrap();
        b.halt(); // pc 2
        let p = b.build().unwrap();
        let mut a = ThreadArch::new(1);
        let out = step_compute(&mut a, p.fetch(0).unwrap(), &p);
        assert_eq!(out, StepOutcome::Taken);
        assert_eq!(a.pc, 2);

        let mut a2 = ThreadArch::new(1);
        a2.set_reg(r, 1);
        let out2 = step_compute(&mut a2, p.fetch(0).unwrap(), &p);
        assert_eq!(out2, StepOutcome::NotTaken);
        assert_eq!(a2.pc, 1);
    }

    #[test]
    fn mask_algebra() {
        let mut a = ThreadArch::new(4);
        let p = empty_program();
        step_compute(&mut a, &Instr::MSetAll { f: MReg::new(0) }, &p);
        assert_eq!(a.mreg(MReg::new(0)), 0b1111);
        step_compute(
            &mut a,
            &Instr::MNot {
                fd: MReg::new(1),
                fs: MReg::new(0),
            },
            &p,
        );
        assert_eq!(a.mreg(MReg::new(1)), 0, "complement truncated to width");
        step_compute(
            &mut a,
            &Instr::MPopcount {
                rd: Reg::new(3),
                f: MReg::new(0),
            },
            &p,
        );
        assert_eq!(a.reg(Reg::new(3)), 4);
    }

    #[test]
    fn extract_insert_round_trip() {
        let mut a = ThreadArch::new(4);
        let p = empty_program();
        a.set_vreg(VReg::new(0), &[7, 8, 9, 10]);
        step_compute(
            &mut a,
            &Instr::VExtract {
                rd: Reg::new(1),
                vs: VReg::new(0),
                lane: LaneSel::Imm(2),
            },
            &p,
        );
        assert_eq!(a.reg(Reg::new(1)), 9);
        a.set_reg(Reg::new(2), 3); // dynamic lane select
        step_compute(
            &mut a,
            &Instr::VInsert {
                vd: VReg::new(0),
                rs: Reg::new(1),
                lane: LaneSel::Reg(Reg::new(2)),
            },
            &p,
        );
        assert_eq!(a.vreg(VReg::new(0)), &[7, 8, 9, 9]);
    }

    #[test]
    fn memory_instructions_flagged() {
        let mut a = ThreadArch::new(4);
        let p = empty_program();
        let i = Instr::Load {
            rd: Reg::new(1),
            base: Reg::new(2),
            offset: 0,
        };
        assert_eq!(step_compute(&mut a, &i, &p), StepOutcome::Memory);
        assert_eq!(a.pc, 0, "memory ops leave the pc for the pipeline");
    }

    #[test]
    fn src_and_dst_extraction() {
        let i = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::new(1),
            rs: Reg::new(2),
            src2: Operand::Reg(Reg::new(3)),
        };
        let d = Decoded::of(&i, true);
        assert_eq!(d.regs(), [Reg::new(2), Reg::new(3), Reg::new(1)]);
        assert!(d.sync);
        assert_eq!(d.gate, Gate::Free);

        let st = Instr::Store {
            rs: Reg::new(4),
            base: Reg::new(5),
            offset: 8,
        };
        let d = Decoded::of(&st, false);
        assert_eq!(d.regs(), [Reg::new(4), Reg::new(5)]);
        assert_eq!(d.gate, Gate::Store);

        let gl = Instr::VGatherLink {
            fd: MReg::new(0),
            vd: VReg::new(0),
            base: Reg::new(6),
            vidx: VReg::new(1),
            fsrc: MReg::new(1),
        };
        assert_eq!(Decoded::of(&gl, false).regs(), [Reg::new(6)]);

        let fence = Instr::Fence {
            kind: FenceKind::Acquire,
        };
        let d = Decoded::of(&fence, false);
        assert!(d.regs().is_empty());
        assert_eq!(d.gate, Gate::Fence(FenceKind::Acquire));
        assert_eq!(Decoded::of(&Instr::Barrier, false).gate, Gate::Barrier);
    }

    #[test]
    fn fp_semantics_on_bits() {
        let mut a = ThreadArch::new(1);
        let p = empty_program();
        a.set_reg(Reg::new(1), 2.5f32.to_bits() as u64);
        a.set_reg(Reg::new(2), 0.5f32.to_bits() as u64);
        step_compute(
            &mut a,
            &Instr::Fp {
                op: FpOp::Add,
                rd: Reg::new(3),
                rs: Reg::new(1),
                rt: Reg::new(2),
            },
            &p,
        );
        assert_eq!(f32::from_bits(a.reg(Reg::new(3)) as u32), 3.0);
        step_compute(
            &mut a,
            &Instr::CvtF32ToInt {
                rd: Reg::new(4),
                rs: Reg::new(3),
            },
            &p,
        );
        assert_eq!(a.reg(Reg::new(4)), 3);
        a.set_reg(Reg::new(5), (-7i64) as u64);
        step_compute(
            &mut a,
            &Instr::CvtIntToF32 {
                rd: Reg::new(6),
                rs: Reg::new(5),
            },
            &p,
        );
        assert_eq!(f32::from_bits(a.reg(Reg::new(6)) as u32), -7.0);
    }
}
