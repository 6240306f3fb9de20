//! Typed error values for configuration validation and coherence
//! invariant checking.
//!
//! Historically both were `panic!`/`assert!`s inside [`MemorySystem`] and
//! [`MemConfig`]; the fault-injection work (DESIGN.md §9) turned them into
//! values so the simulator can surface a structured diagnostic instead of
//! aborting the process, and so tests can assert on the *kind* of
//! violation.
//!
//! [`MemorySystem`]: crate::MemorySystem
//! [`MemConfig`]: crate::MemConfig

use std::error::Error;
use std::fmt;

/// A rejected memory-system parameter, produced by
/// [`MemConfig::check`](crate::MemConfig::check).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// L1 or L2 associativity is zero.
    ZeroAssociativity,
    /// `l2_banks` is zero.
    NoBanks,
    /// L1 capacity does not divide into whole sets.
    L1NotSetDivisible {
        /// Configured L1 capacity in bytes.
        l1_bytes: u64,
        /// Configured associativity.
        assoc: usize,
    },
    /// The L1 would have zero sets.
    NoL1Sets,
    /// Each L2 bank would have zero sets.
    NoL2Sets,
    /// The L1 set count, the L2 set count per bank or the L2 bank count
    /// is not a power of two. Sets and banks are picked by a shift and a
    /// mask (DESIGN.md §8), so each of these counts must be one.
    GeometryNotPowerOfTwo {
        /// Which count: `"L1 sets"`, `"L2 sets per bank"` or `"L2 banks"`.
        what: &'static str,
        /// The offending count.
        count: usize,
    },
    /// The §3.3 reservation buffer was requested with zero entries.
    ZeroBufferEntries,
    /// The NACK-holdoff arbitration policy was configured with a zero
    /// window (use [`ArbitrationPolicy::Free`](crate::ArbitrationPolicy)
    /// for no holdoff instead).
    ZeroHoldoffWindow,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroAssociativity => write!(f, "associativity must be non-zero"),
            ConfigError::NoBanks => write!(f, "need at least one L2 bank"),
            ConfigError::L1NotSetDivisible { l1_bytes, assoc } => write!(
                f,
                "L1 capacity must divide into sets \
                 ({l1_bytes} B / ({} B x {assoc} ways))",
                crate::LINE_BYTES
            ),
            ConfigError::NoL1Sets => write!(f, "L1 must have at least one set"),
            ConfigError::NoL2Sets => write!(f, "L2 banks must have at least one set"),
            ConfigError::GeometryNotPowerOfTwo { what, count } => {
                write!(f, "{what} must be a power of two (got {count})")
            }
            ConfigError::ZeroBufferEntries => {
                write!(f, "GLSC reservation buffer needs at least one entry")
            }
            ConfigError::ZeroHoldoffWindow => {
                write!(
                    f,
                    "NACK-holdoff arbitration needs a non-zero window (use the Free \
                     policy for no holdoff)"
                )
            }
        }
    }
}

impl Error for ConfigError {}

/// A violated coherence invariant, found by
/// [`MemorySystem::try_check_invariants`].
///
/// Each variant names the line, the core(s) involved, and the directory
/// state observed, so a failing chaos run can be diagnosed from the error
/// alone.
///
/// [`MemorySystem::try_check_invariants`]: crate::MemorySystem::try_check_invariants
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvariantViolation {
    /// An L1 holds a line the inclusive L2 does not (inclusion broken).
    Inclusion {
        /// The L1's core id.
        core: usize,
        /// The orphaned line address.
        line: u64,
    },
    /// An L1 holds a line Modified but the directory names a different
    /// owner (single-writer broken).
    OwnerMismatch {
        /// The core holding the line Modified.
        core: usize,
        /// The line address.
        line: u64,
        /// The owner the directory recorded instead.
        directory_owner: Option<u8>,
    },
    /// An L1 holds a line Shared but is missing from the directory's
    /// sharer vector.
    MissingSharer {
        /// The core holding the line Shared.
        core: usize,
        /// The line address.
        line: u64,
        /// The directory's sharer bitmask.
        sharers: u32,
    },
    /// The directory records an owner while also recording sharers
    /// (Modified must be exclusive).
    OwnedWithSharers {
        /// The recorded owner.
        owner: u8,
        /// The line address.
        line: u64,
        /// The non-empty sharer bitmask.
        sharers: u32,
    },
    /// The directory records an owner whose L1 does not actually hold the
    /// line Modified.
    OwnerNotModified {
        /// The recorded owner.
        owner: u8,
        /// The line address.
        line: u64,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::Inclusion { core, line } => {
                write!(f, "inclusion violated: L1 {core} holds {line:#x} not in L2")
            }
            InvariantViolation::OwnerMismatch {
                core,
                line,
                directory_owner,
            } => write!(
                f,
                "L1 {core} has {line:#x} Modified but directory owner is {directory_owner:?}"
            ),
            InvariantViolation::MissingSharer {
                core,
                line,
                sharers,
            } => write!(
                f,
                "L1 {core} has {line:#x} Shared but is not a directory sharer \
                 (sharers {sharers:#x})"
            ),
            InvariantViolation::OwnedWithSharers {
                owner,
                line,
                sharers,
            } => write!(
                f,
                "owned line {line:#x} (owner {owner}) must have no sharers \
                 (sharers {sharers:#x})"
            ),
            InvariantViolation::OwnerNotModified { owner, line } => {
                write!(
                    f,
                    "directory owner {owner} does not hold {line:#x} Modified"
                )
            }
        }
    }
}

impl Error for InvariantViolation {}
