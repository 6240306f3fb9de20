//! # glsc-isa — the simulated vector ISA
//!
//! This crate defines the instruction set executed by the `glsc-sim`
//! cycle-level CMP simulator, reproducing the ISA assumed by *Atomic Vector
//! Operations on Chip Multiprocessors* (ISCA 2008):
//!
//! * a scalar RISC core subset (integer/float ALU, branches, 32-bit
//!   loads/stores, load-linked / store-conditional),
//! * masked SIMD arithmetic over configurable-width vector registers
//!   (paper §2.1),
//! * indexed **gather**/**scatter** memory operations (paper §2.2),
//! * the paper's contribution: **`vgatherlink`** and **`vscattercond`**,
//!   the atomic vector primitives (paper §3.1).
//!
//! Programs are built with [`ProgramBuilder`], a tiny assembler with labels
//! and synchronization-region annotation (used by the simulator to attribute
//! cycles to synchronization, as in Figure 5(a) of the paper).
//!
//! ```
//! use glsc_isa::{ProgramBuilder, Reg, VReg, MReg};
//!
//! # fn main() -> Result<(), glsc_isa::BuildError> {
//! let mut b = ProgramBuilder::new();
//! let (r_base, r_i) = (Reg::new(2), Reg::new(3));
//! let done = b.label();
//! b.li(r_i, 0);
//! let top = b.here();
//! b.bge(r_i, 8, done);
//! b.ld(Reg::new(4), r_base, 0);
//! b.addi(r_i, r_i, 1);
//! b.jmp(top);
//! b.bind(done)?;
//! b.halt();
//! let program = b.build()?;
//! assert_eq!(program.len(), 6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod instr;
mod program;
mod reg;

pub use builder::{BuildError, ProgramBuilder};
pub use instr::{AluOp, CmpOp, FenceKind, FpOp, Instr, LaneSel, Operand, VSrc};
pub use program::{Label, Program};
pub use reg::{MReg, Reg, VReg, NUM_MASK_REGS, NUM_SCALAR_REGS, NUM_VECTOR_REGS};

/// Size in bytes of one SIMD data element (the paper assumes 32-bit
/// elements; see §1 "number of 32-bit data elements").
pub const ELEM_BYTES: u64 = 4;

/// Maximum SIMD width supported by the ISA encoding (mask registers are a
/// 32-bit set, so up to 32 lanes; the paper evaluates widths 1, 4 and 16).
pub const MAX_SIMD_WIDTH: usize = 32;
