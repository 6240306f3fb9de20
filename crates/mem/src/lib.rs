//! # glsc-mem — memory hierarchy of the simulated CMP
//!
//! Models the memory system of the baseline architecture in *Atomic Vector
//! Operations on Chip Multiprocessors* (ISCA 2008, §2 and Table 1):
//!
//! * a sparse **backing store** holding the actual data values
//!   ([`Backing`]),
//! * per-core private **L1 data caches** (32 KB, 4-way, 64 B lines, 3-cycle
//!   hits) whose tag entries carry the **GLSC reservation** extension of
//!   §3.3 (a valid bit plus an SMT thread id per line),
//! * a shared, inclusive, physically banked **L2** (16 MB, 8-way, 16 banks,
//!   12-cycle minimum latency) holding per-line **directory** state for an
//!   MSI protocol,
//! * a fixed-latency **DRAM** model (280 cycles),
//! * a per-core **stride prefetcher** on the L1 (§4.1),
//! * an explicit **on-die interconnect** ([`Noc`]) between the L1s and the
//!   L2 banks carrying typed coherence messages ([`MsgClass`]) over a
//!   configurable topology ([`Topology`]); the default ideal fabric
//!   reproduces the historical fixed-latency timing exactly.
//!
//! The central type is [`MemorySystem`]: callers (the LSU and GSU models in
//! `glsc-core`) submit one line-granular request per L1 port grant via
//! [`MemorySystem::access`], which returns the request's completion cycle
//! and — for store-conditional requests — whether the line reservation was
//! still held (the paper's GLSC entry check).
//!
//! ## Fidelity notes
//!
//! Data and timing are split: caches track tags, coherence state, LRU and
//! reservations, while values live in the [`Backing`] store and are read or
//! written by the caller at commit time. Request latency is computed when
//! the request is accepted and directory state mutates at that instant;
//! subsequent accesses to an in-flight line complete no earlier than its
//! fill (`ready_at`), which yields natural miss combining.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbitration;
mod backing;
mod chaos;
mod config;
mod errors;
mod l1;
mod l2;
mod noc;
mod occupancy;
mod oracle;
mod ordering;
mod prefetch;
mod stats;
mod system;
mod tags;

pub use arbitration::{Arbiter, ArbitrationPolicy};
pub use backing::{Backing, BackingBase};
pub use chaos::{ChaosConfig, ChaosStats, FaultPlan};
pub use config::{LineInterleave, MemConfig};
pub use errors::{ConfigError, InvariantViolation};
pub use l1::{L1Cache, L1State, LinePayload};
pub use l2::{L2Bank, L2Payload};
pub use noc::{MsgClass, Noc, NocConfig, NocStats, Topology};
pub use occupancy::BusyHorizon;
pub use oracle::{AtomicityOracle, AtomicityViolation, OracleStats};
pub use ordering::{MemoryOrder, ParseMemoryOrderError};
pub use prefetch::StridePrefetcher;
pub use stats::{MemStats, ThreadScStats};
pub use system::{AccessResult, MemOp, MemSnapshot, MemorySystem};
pub use tags::TagArray;

/// Returns the line-aligned address containing `addr`.
#[inline]
pub fn line_of(addr: u64, line_bytes: u64) -> u64 {
    debug_assert!(line_bytes.is_power_of_two());
    addr & !(line_bytes - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_masks_low_bits() {
        assert_eq!(line_of(0, 64), 0);
        assert_eq!(line_of(63, 64), 0);
        assert_eq!(line_of(64, 64), 64);
        assert_eq!(line_of(0x12345, 64), 0x12340);
    }
}
