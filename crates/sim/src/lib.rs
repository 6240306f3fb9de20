//! # glsc-sim — cycle-level CMP simulator
//!
//! Execution-driven, cycle-driven simulator of the chip multiprocessor
//! evaluated in *Atomic Vector Operations on Chip Multiprocessors*
//! (ISCA 2008, §4.1 and Table 1):
//!
//! * 1–4 in-order cores, 2-wide issue, 1–4 SMT threads per core,
//! * SIMD width 1/4/16 with mask registers,
//! * the `glsc-mem` cache hierarchy (private L1s + banked directory L2),
//! * the `glsc-core` LSU/GSU memory units, including the paper's
//!   `vgatherlink`/`vscattercond` instructions.
//!
//! The central type is [`Machine`]: load a [`Program`] (every hardware
//! thread runs the same SPMD program with its id in `r0` and the thread
//! count in `r1`), call [`Machine::run`], and inspect the returned
//! [`RunReport`].
//!
//! ```
//! use glsc_isa::{ProgramBuilder, Reg};
//! use glsc_sim::{Machine, MachineConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Each thread stores its id to memory and halts.
//! let mut b = ProgramBuilder::new();
//! let (r_id, r_base) = (Reg::new(0), Reg::new(2));
//! b.li(r_base, 0x1000);
//! b.shl(Reg::new(3), r_id, 2);
//! b.add(r_base, r_base, Reg::new(3));
//! b.st(r_id, r_base, 0);
//! b.halt();
//! let program = b.build()?;
//!
//! let mut machine = Machine::new(MachineConfig::paper(2, 2, 4));
//! machine.load_program(program);
//! let report = machine.run()?;
//! assert!(report.cycles > 0);
//! let val = machine.mem().backing().read_u32(0x1000 + 4 * 3);
//! assert_eq!(val, 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod config;
mod cpu;
mod exec;
mod fleet;
pub mod litmus;
mod machine;
pub mod reference;
mod report;
mod thread;

pub use arch::ThreadArch;
pub use config::{ConfigError, MachineConfig};
pub use fleet::{Fleet, FleetFailure, FleetJob, PauseCtl};
pub use machine::{Machine, MachineSnapshot, SimError, SlicedRun};
pub use report::{jain_fairness, RunReport, StallTotals, ThreadStats};
pub use thread::ThreadStatus;

// Re-export for convenience: a Machine exposes its memory system, and
// chaos plans are installed through it (DESIGN.md §9).
pub use glsc_core::GlscConfig;
pub use glsc_isa::Program;
pub use glsc_mem::{
    ArbitrationPolicy, AtomicityOracle, AtomicityViolation, BackingBase, ChaosConfig, ChaosStats,
    FaultPlan, MemConfig, MemoryOrder, MemorySystem, MsgClass, NocConfig, NocStats, OracleStats,
    ThreadScStats, Topology,
};
