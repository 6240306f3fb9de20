//! The instruction set.
//!
//! One `enum` variant per machine instruction. The simulator in `glsc-sim`
//! interprets these; `glsc-core` provides the timing model for the memory
//! instructions.

use crate::program::Label;
use crate::reg::{MReg, Reg, VReg};

/// Second source operand of scalar ALU/compare instructions: a register or
/// a 64-bit immediate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register operand.
    Reg(Reg),
    /// Immediate operand.
    Imm(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Self {
        Operand::Imm(v as i64)
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Self {
        Operand::Imm(v as i64)
    }
}

/// Second source operand of vector ALU instructions: a vector register, a
/// broadcast scalar register, or a broadcast immediate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VSrc {
    /// Element-wise vector operand.
    Vec(VReg),
    /// Scalar register broadcast to all lanes (low 32 bits).
    Bcast(Reg),
    /// Immediate broadcast to all lanes.
    Imm(i64),
}

impl From<VReg> for VSrc {
    fn from(v: VReg) -> Self {
        VSrc::Vec(v)
    }
}

impl From<Reg> for VSrc {
    fn from(r: Reg) -> Self {
        VSrc::Bcast(r)
    }
}

impl From<i64> for VSrc {
    fn from(v: i64) -> Self {
        VSrc::Imm(v)
    }
}

impl From<i32> for VSrc {
    fn from(v: i32) -> Self {
        VSrc::Imm(v as i64)
    }
}

/// Lane selector for `VExtract`/`VInsert`: a compile-time lane number or a
/// scalar register holding the lane number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LaneSel {
    /// Fixed lane index.
    Imm(u8),
    /// Lane index taken from a scalar register at run time.
    Reg(Reg),
}

impl From<u8> for LaneSel {
    fn from(v: u8) -> Self {
        LaneSel::Imm(v)
    }
}

impl From<Reg> for LaneSel {
    fn from(r: Reg) -> Self {
        LaneSel::Reg(r)
    }
}

/// Integer ALU operation selector (scalar and vector forms).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division. Division by zero yields all-ones.
    Div,
    /// Unsigned remainder. Remainder by zero yields the dividend.
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amount taken modulo the operand width).
    Shl,
    /// Logical shift right (shift amount taken modulo the operand width).
    Shr,
    /// Unsigned minimum.
    Min,
    /// Unsigned maximum.
    Max,
}

/// Floating-point operation selector (IEEE-754 single precision).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// Strength of a memory fence (DESIGN.md §17).
///
/// Under the default sequentially-consistent model every fence is a
/// one-cycle no-op (the machine is already ordered); under TSO and the
/// relaxed model they constrain the issuing thread's write buffer and
/// outstanding memory operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FenceKind {
    /// `fence` — full barrier: the thread's write buffer must drain and
    /// all of its outstanding memory operations must complete before the
    /// fence retires.
    Full,
    /// `fence.acq` — acquire: later operations may not start until the
    /// thread's outstanding loads and stores in the LSU have completed
    /// (buffered stores may still be draining).
    Acquire,
    /// `fence.rel` — release: earlier stores (including buffered ones)
    /// must be globally visible before the fence retires.
    Release,
}

/// Comparison predicate for compares and conditional branches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than (ordered less-than for floats).
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

/// A machine instruction.
///
/// Memory addressing: scalar accesses use `base + offset` byte addresses;
/// vector indexed accesses use `base + ELEM_BYTES * Vindx[lane]`, matching
/// the paper's `base[Vindx[i]]` form (§3.1). All memory data is 32 bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Instr {
    // ---- scalar arithmetic ----
    /// `rd <- imm`
    Li {
        /// Destination.
        rd: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// `rd <- op(rs, src2)` over 64-bit integers.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs: Reg,
        /// Second source.
        src2: Operand,
    },
    /// `rd <- op(rs, rt)` over f32 (low 32 bits of the scalar registers).
    Fp {
        /// Operation.
        op: FpOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs: Reg,
        /// Second source.
        rt: Reg,
    },
    /// `rd <- (rs `op` src2) ? 1 : 0` (signed integer compare).
    Cmp {
        /// Predicate.
        op: CmpOp,
        /// Destination (0 or 1).
        rd: Reg,
        /// First source.
        rs: Reg,
        /// Second source.
        src2: Operand,
    },
    /// `rd <- (f32(rs) `op` f32(rt)) ? 1 : 0`.
    FCmp {
        /// Predicate.
        op: CmpOp,
        /// Destination (0 or 1).
        rd: Reg,
        /// First source.
        rs: Reg,
        /// Second source.
        rt: Reg,
    },
    /// Convert signed integer `rs` to f32 bits in `rd`.
    CvtIntToF32 {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
    },
    /// Convert f32 bits in `rs` to a truncated signed integer in `rd`.
    CvtF32ToInt {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
    },

    // ---- control flow ----
    /// Branch to `target` if `rs op src2` (signed compare).
    Branch {
        /// Predicate.
        op: CmpOp,
        /// First source.
        rs: Reg,
        /// Second source.
        src2: Operand,
        /// Branch target.
        target: Label,
    },
    /// Unconditional jump.
    Jump {
        /// Jump target.
        target: Label,
    },
    /// Branch to `target` if mask `f` has no set lane (within SIMD width).
    BranchMaskZero {
        /// Mask tested.
        f: MReg,
        /// Branch target.
        target: Label,
    },
    /// Branch to `target` if mask `f` has at least one set lane.
    BranchMaskNotZero {
        /// Mask tested.
        f: MReg,
        /// Branch target.
        target: Label,
    },
    /// Stop this hardware thread.
    Halt,
    /// Block until every live thread in the machine reaches a barrier.
    Barrier,
    /// No operation.
    Nop,
    /// Memory fence of the given strength (`fence`, `fence.acq`,
    /// `fence.rel`). Ordering-only: no data is accessed, so fences are
    /// handled at the issue stage rather than by the LSU/GSU.
    Fence {
        /// Fence strength.
        kind: FenceKind,
    },

    // ---- scalar memory (32-bit data) ----
    /// `rd <- zext(mem32[base + offset])`
    Load {
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
    },
    /// `mem32[base + offset] <- low32(rs)`
    Store {
        /// Source value.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
    },
    /// Load-linked: as `Load`, additionally setting this thread's
    /// reservation on the cache line (paper §2.3).
    LoadLinked {
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
    },
    /// Store-conditional: stores iff the line reservation is still held by
    /// this thread; `rd` receives 1 on success, 0 on failure.
    StoreCond {
        /// Success flag destination.
        rd: Reg,
        /// Source value.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
    },

    // ---- vector arithmetic ----
    /// Element-wise integer op under optional mask; inactive lanes keep the
    /// previous destination value.
    VAlu {
        /// Operation.
        op: AluOp,
        /// Destination.
        vd: VReg,
        /// First source.
        vs: VReg,
        /// Second source.
        src2: VSrc,
        /// Optional lane mask.
        mask: Option<MReg>,
    },
    /// Element-wise f32 op under optional mask.
    VFp {
        /// Operation.
        op: FpOp,
        /// Destination.
        vd: VReg,
        /// First source.
        vs: VReg,
        /// Second source.
        vt: VReg,
        /// Optional lane mask.
        mask: Option<MReg>,
    },
    /// Element-wise integer compare producing a mask (restricted to lanes of
    /// `mask` when present; other lanes are cleared).
    VCmp {
        /// Predicate.
        op: CmpOp,
        /// Destination mask.
        fd: MReg,
        /// First source.
        vs: VReg,
        /// Second source.
        src2: VSrc,
        /// Optional lane mask.
        mask: Option<MReg>,
    },
    /// Element-wise f32 compare producing a mask.
    VFCmp {
        /// Predicate.
        op: CmpOp,
        /// Destination mask.
        fd: MReg,
        /// First source.
        vs: VReg,
        /// Second source.
        vt: VReg,
        /// Optional lane mask.
        mask: Option<MReg>,
    },
    /// Broadcast the low 32 bits of `rs` to every lane of `vd`.
    VSplat {
        /// Destination.
        vd: VReg,
        /// Source scalar.
        rs: Reg,
    },
    /// `vd[lane] <- lane` for every lane (0, 1, 2, ...).
    VIota {
        /// Destination.
        vd: VReg,
    },
    /// `rd <- zext(vs[lane])`.
    VExtract {
        /// Destination scalar.
        rd: Reg,
        /// Source vector.
        vs: VReg,
        /// Lane selector.
        lane: LaneSel,
    },
    /// `vd[lane] <- low32(rs)`.
    VInsert {
        /// Destination vector.
        vd: VReg,
        /// Source scalar.
        rs: Reg,
        /// Lane selector.
        lane: LaneSel,
    },

    // ---- mask ops ----
    /// Set the low `simd_width` bits of `f`.
    MSetAll {
        /// Destination mask.
        f: MReg,
    },
    /// Clear `f`.
    MClear {
        /// Destination mask.
        f: MReg,
    },
    /// `fd <- !fs` (restricted to SIMD width).
    MNot {
        /// Destination mask.
        fd: MReg,
        /// Source mask.
        fs: MReg,
    },
    /// `fd <- fa & fb`.
    MAnd {
        /// Destination mask.
        fd: MReg,
        /// First source.
        fa: MReg,
        /// Second source.
        fb: MReg,
    },
    /// `fd <- fa | fb`.
    MOr {
        /// Destination mask.
        fd: MReg,
        /// First source.
        fa: MReg,
        /// Second source.
        fb: MReg,
    },
    /// `fd <- fa ^ fb`.
    MXor {
        /// Destination mask.
        fd: MReg,
        /// First source.
        fa: MReg,
        /// Second source.
        fb: MReg,
    },
    /// `fd <- fs`.
    MMov {
        /// Destination mask.
        fd: MReg,
        /// Source mask.
        fs: MReg,
    },
    /// `rd <- popcount(f)`.
    MPopcount {
        /// Destination scalar.
        rd: Reg,
        /// Source mask.
        f: MReg,
    },
    /// `f <- low bits of rs` (restricted to SIMD width).
    MFromReg {
        /// Destination mask.
        f: MReg,
        /// Source scalar.
        rs: Reg,
    },
    /// `rd <- bits of f`.
    MToReg {
        /// Destination scalar.
        rd: Reg,
        /// Source mask.
        f: MReg,
    },

    // ---- vector memory ----
    /// Unit-stride vector load of `simd_width` elements starting at
    /// `base + offset`, under optional mask.
    VLoad {
        /// Destination.
        vd: VReg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
        /// Optional lane mask.
        mask: Option<MReg>,
    },
    /// Unit-stride vector store.
    VStore {
        /// Source.
        vs: VReg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
        /// Optional lane mask.
        mask: Option<MReg>,
    },
    /// Indexed gather: `vd[i] <- mem32[base + 4*vidx[i]]` for active lanes
    /// (paper §2.2).
    VGather {
        /// Destination.
        vd: VReg,
        /// Base address register.
        base: Reg,
        /// Index vector.
        vidx: VReg,
        /// Optional lane mask.
        mask: Option<MReg>,
    },
    /// Indexed scatter: `mem32[base + 4*vidx[i]] <- vs[i]` for active lanes.
    /// Element aliasing is *undefined* for plain scatters (§3); the
    /// simulator applies lanes in increasing order.
    VScatter {
        /// Source.
        vs: VReg,
        /// Base address register.
        base: Reg,
        /// Index vector.
        vidx: VReg,
        /// Optional lane mask.
        mask: Option<MReg>,
    },
    /// `vgatherlink Fdst, Vdst, base, Vindx, Fsrc` (paper §3.1): gathers
    /// active lanes and acquires cache-line reservations for them; `fd`
    /// reports per-lane success.
    VGatherLink {
        /// Output mask (success per lane).
        fd: MReg,
        /// Destination vector.
        vd: VReg,
        /// Base address register.
        base: Reg,
        /// Index vector.
        vidx: VReg,
        /// Input mask.
        fsrc: MReg,
    },
    /// `vscattercond Fdst, Vsrc, base, Vindx, Fsrc` (paper §3.1): scatters
    /// active lanes whose line reservations are still held; detects element
    /// aliasing and lets exactly one aliased lane succeed; `fd` reports
    /// per-lane success.
    VScatterCond {
        /// Output mask (success per lane).
        fd: MReg,
        /// Source vector.
        vs: VReg,
        /// Base address register.
        base: Reg,
        /// Index vector.
        vidx: VReg,
        /// Input mask.
        fsrc: MReg,
    },
}

impl Instr {
    /// Returns `true` for instructions that access memory (and therefore go
    /// through the LSU or GSU in the timing model).
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::LoadLinked { .. }
                | Instr::StoreCond { .. }
                | Instr::VLoad { .. }
                | Instr::VStore { .. }
                | Instr::VGather { .. }
                | Instr::VScatter { .. }
                | Instr::VGatherLink { .. }
                | Instr::VScatterCond { .. }
        )
    }

    /// Returns `true` for the atomic-capable memory instructions (scalar
    /// ll/sc and the GLSC pair). Used for the "L1 accesses due to atomic
    /// operations" statistic of Table 4.
    pub fn is_atomic(&self) -> bool {
        matches!(
            self,
            Instr::LoadLinked { .. }
                | Instr::StoreCond { .. }
                | Instr::VGatherLink { .. }
                | Instr::VScatterCond { .. }
        )
    }

    /// Returns `true` for instructions handled by the gather/scatter unit.
    pub fn uses_gsu(&self) -> bool {
        matches!(
            self,
            Instr::VGather { .. }
                | Instr::VScatter { .. }
                | Instr::VGatherLink { .. }
                | Instr::VScatterCond { .. }
        )
    }

    /// Returns `true` for memory fences. Fences are ordering-only: they
    /// access no data (`is_memory` is `false`) and stall at the issue
    /// stage until their ordering condition holds.
    pub fn is_fence(&self) -> bool {
        matches!(self, Instr::Fence { .. })
    }

    /// Returns `true` for control-flow instructions.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::Branch { .. }
                | Instr::Jump { .. }
                | Instr::BranchMaskZero { .. }
                | Instr::BranchMaskNotZero { .. }
                | Instr::Halt
                | Instr::Barrier
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let r = Reg::new(1);
        let v = VReg::new(1);
        let f = MReg::new(1);
        assert!(Instr::Load {
            rd: r,
            base: r,
            offset: 0
        }
        .is_memory());
        assert!(!Instr::Li { rd: r, imm: 3 }.is_memory());
        assert!(Instr::VGatherLink {
            fd: f,
            vd: v,
            base: r,
            vidx: v,
            fsrc: f
        }
        .is_atomic());
        assert!(Instr::VGatherLink {
            fd: f,
            vd: v,
            base: r,
            vidx: v,
            fsrc: f
        }
        .uses_gsu());
        assert!(!Instr::VLoad {
            vd: v,
            base: r,
            offset: 0,
            mask: None
        }
        .uses_gsu());
        assert!(Instr::Halt.is_control());
        for kind in [FenceKind::Full, FenceKind::Acquire, FenceKind::Release] {
            let fence = Instr::Fence { kind };
            assert!(fence.is_fence());
            assert!(!fence.is_memory());
            assert!(!fence.is_control());
            assert!(!fence.uses_gsu());
        }
        assert!(Instr::StoreCond {
            rd: r,
            rs: r,
            base: r,
            offset: 0
        }
        .is_atomic());
    }

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(Reg::new(3)), Operand::Reg(Reg::new(3)));
        assert_eq!(Operand::from(5i64), Operand::Imm(5));
        assert_eq!(VSrc::from(Reg::new(2)), VSrc::Bcast(Reg::new(2)));
        assert_eq!(VSrc::from(VReg::new(2)), VSrc::Vec(VReg::new(2)));
        assert_eq!(LaneSel::from(3u8), LaneSel::Imm(3));
    }
}
