//! # glsc-mem — memory hierarchy of the simulated CMP
//!
//! Models the memory system of the baseline architecture in *Atomic Vector
//! Operations on Chip Multiprocessors* (ISCA 2008, §2 and Table 1):
//!
//! * a sparse **backing store** holding the actual data values
//!   ([`Backing`]),
//! * per-core private **L1 data caches** (32 KB, 4-way, 64 B lines,
//!   3-cycle hits) whose tag entries carry the **GLSC reservation**
//!   extension of §3.3 (a valid bit plus an SMT thread id per line),
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
//!
//! ## Table 1 constants
//!
//! [`MemConfig`] holds only what runs vary: cache geometry, DRAM latency,
//! the reservation store, the prefetcher switch, the fabric topology, the
//! arbitration policy and the memory order. The rest of Table 1 is fixed:
//! [`LINE_BYTES`] and [`L1_HIT_LATENCY`] here, the 12-cycle L2 latency
//! and 12-cycle dirty-forward penalty in the memory system, the L2 banks'
//! 2-cycle occupancy, the prefetcher's degree of 2, and 1-cycle Crossbar
//! and Ring hops that hold their link for one cycle.

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
pub use system::{AccessResult, MemOp, MemorySystem};
pub use tags::TagArray;

/// Cache line size in bytes (Table 1). The one line size of the whole
/// simulator: the caches, the prefetcher, the bank and set interleaving,
/// the functional reference and the kernels' data layouts all use it.
pub const LINE_BYTES: u64 = 64;

/// L1 hit latency in cycles (Table 1), which every L2 request also pays
/// for its L1 probe.
pub const L1_HIT_LATENCY: u64 = 3;

/// Returns the line-aligned address containing `addr`.
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_masks_low_bits() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 64);
        assert_eq!(line_of(0x12345), 0x12340);
    }
}
