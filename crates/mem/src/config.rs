//! Memory-system configuration (Table 1 of the paper).

use crate::arbitration::ArbitrationPolicy;
use crate::errors::ConfigError;
use crate::noc::NocConfig;
use crate::ordering::MemoryOrder;
use crate::LINE_BYTES;

/// The parameters of the simulated memory hierarchy that runs vary.
/// [`MemConfig::default`] reproduces Table 1 of the paper; the Table 1
/// values no run varies are constants ([`LINE_BYTES`](crate::LINE_BYTES),
/// [`L1_HIT_LATENCY`](crate::L1_HIT_LATENCY), and the L2, prefetcher and
/// link timings of DESIGN.md §3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// Private L1 data cache capacity in bytes (32 KB).
    pub l1_bytes: u64,
    /// L1 associativity (4).
    pub l1_assoc: usize,
    /// Shared L2 capacity in bytes (16 MB).
    pub l2_bytes: u64,
    /// L2 associativity (8).
    pub l2_assoc: usize,
    /// Number of L2 banks (16).
    pub l2_banks: usize,
    /// Main-memory access latency in cycles (280).
    pub dram_latency: u64,
    /// GLSC entry implementation (§3.3): `None` = per-line tag bits (the
    /// default, "(1 + #SMT threads) bits per cache line"); `Some(k)` = a
    /// fully-associative buffer of `k` entries per L1 (the paper's
    /// alternative design; overflow conservatively drops the oldest
    /// reservation).
    pub glsc_buffer_entries: Option<usize>,
    /// Enable the L1 hardware stride prefetcher (§4.1).
    pub prefetch: bool,
    /// On-die interconnect between the L1s and the L2 banks. The default
    /// [`Topology::Ideal`](crate::Topology) fabric reproduces the
    /// historical fixed-latency timing exactly.
    pub noc: NocConfig,
    /// Reservation arbitration policy applied to store-conditionals
    /// (DESIGN.md §12). The default [`ArbitrationPolicy::Free`] reproduces
    /// the historical first-committer-wins timing exactly.
    pub arbitration: ArbitrationPolicy,
    /// Memory-consistency model implemented by the per-core LSUs
    /// (DESIGN.md §17). The default [`MemoryOrder::Sc`] reproduces the
    /// historical sequentially-consistent timing exactly.
    pub memory_order: MemoryOrder,
}

impl Default for MemConfig {
    fn default() -> Self {
        Self {
            l1_bytes: 32 * 1024,
            l1_assoc: 4,
            l2_bytes: 16 * 1024 * 1024,
            l2_assoc: 8,
            l2_banks: 16,
            dram_latency: 280,
            glsc_buffer_entries: None,
            prefetch: true,
            noc: NocConfig::ideal(),
            arbitration: ArbitrationPolicy::Free,
            memory_order: MemoryOrder::Sc,
        }
    }
}

impl MemConfig {
    /// A small configuration for unit tests: tiny caches so that evictions
    /// and set conflicts are easy to trigger.
    pub fn tiny() -> Self {
        Self {
            l1_bytes: 1024,
            l1_assoc: 2,
            l2_bytes: 8 * 1024,
            l2_assoc: 2,
            l2_banks: 2,
            prefetch: false,
            ..Self::default()
        }
    }

    /// Number of L1 sets.
    pub fn l1_sets(&self) -> usize {
        (self.l1_bytes / LINE_BYTES) as usize / self.l1_assoc
    }

    /// Number of sets in each L2 bank.
    pub fn l2_sets_per_bank(&self) -> usize {
        (self.l2_bytes / LINE_BYTES) as usize / self.l2_assoc / self.l2_banks
    }

    /// The L2 bank serving a given line address (consecutive lines go to
    /// consecutive banks, as in a physically distributed L2).
    #[inline]
    pub fn bank_of(&self, line: u64) -> usize {
        self.bank_interleave().index(line)
    }

    /// The line-to-bank interleaving behind [`bank_of`](Self::bank_of), for
    /// units that map addresses to banks without holding the whole
    /// configuration.
    #[inline]
    pub fn bank_interleave(&self) -> LineInterleave {
        LineInterleave {
            mask: (self.l2_banks as u64).wrapping_sub(1),
        }
    }

    /// Checks internal consistency (powers of two, non-zero ways),
    /// returning the first violated constraint as a typed value.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found; see its variants for the
    /// complete list of constraints.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.l1_assoc == 0 || self.l2_assoc == 0 {
            return Err(ConfigError::ZeroAssociativity);
        }
        if self.l2_banks == 0 {
            return Err(ConfigError::NoBanks);
        }
        if !self
            .l1_bytes
            .is_multiple_of(LINE_BYTES * self.l1_assoc as u64)
        {
            return Err(ConfigError::L1NotSetDivisible {
                l1_bytes: self.l1_bytes,
                assoc: self.l1_assoc,
            });
        }
        if self.l1_sets() == 0 {
            return Err(ConfigError::NoL1Sets);
        }
        if self.l2_sets_per_bank() == 0 {
            return Err(ConfigError::NoL2Sets);
        }
        for (what, count) in [
            ("L1 sets", self.l1_sets()),
            ("L2 sets per bank", self.l2_sets_per_bank()),
            ("L2 banks", self.l2_banks),
        ] {
            if !count.is_power_of_two() {
                return Err(ConfigError::GeometryNotPowerOfTwo { what, count });
            }
        }
        if self.glsc_buffer_entries == Some(0) {
            return Err(ConfigError::ZeroBufferEntries);
        }
        if self.arbitration == (ArbitrationPolicy::NackHoldoff { window: 0 }) {
            return Err(ConfigError::ZeroHoldoffWindow);
        }
        Ok(())
    }
}

/// Spreads consecutive lines over a power-of-two number of slots, such as
/// the L2 banks or a cache's sets: the slot of `addr` is `(addr /
/// LINE_BYTES) % slots`, taken as a shift and a mask, so no access pays a
/// division.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineInterleave {
    mask: u64,
}

impl LineInterleave {
    /// Interleaves lines over `slots` slots.
    ///
    /// # Panics
    ///
    /// Panics unless `slots` is a power of two.
    pub fn new(slots: usize) -> Self {
        Self::checked(slots)
            .unwrap_or_else(|| panic!("slot count must be a power of two (got {slots} slots)"))
    }

    /// [`new`](Self::new), or `None` unless `slots` is a power of two.
    pub(crate) fn checked(slots: usize) -> Option<Self> {
        slots.is_power_of_two().then(|| Self {
            mask: slots as u64 - 1,
        })
    }

    /// The slot holding the line that contains `addr`.
    #[inline]
    pub fn index(self, addr: u64) -> usize {
        ((addr >> LINE_BYTES.trailing_zeros()) & self.mask) as usize
    }

    /// Number of slots.
    pub fn slots(self) -> usize {
        self.mask as usize + 1
    }
}

// Encoded as the slot count it was built from, and checked again on
// decode, so a corrupt snapshot is a typed error, not a panic.
impl glsc_wire::Wire for LineInterleave {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        self.slots().encode(w);
    }
    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        let at = r.pos();
        let slots = usize::decode(r)?;
        Self::checked(slots).ok_or(glsc_wire::WireError::Invalid {
            at,
            what: "line interleave geometry",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsc_wire::Wire;

    #[test]
    fn default_matches_table_1() {
        let c = MemConfig::default();
        assert_eq!(c.check(), Ok(()));
        assert_eq!(c.l1_sets(), 128); // 32KB / 64B / 4-way
        assert_eq!(c.dram_latency, 280);
        assert_eq!(c.l2_sets_per_bank(), 2048); // 16MB / 64B / 8 / 16
        assert_eq!(c.memory_order, MemoryOrder::Sc);
    }

    #[test]
    fn banking_interleaves_lines() {
        let c = MemConfig::default();
        assert_eq!(c.bank_of(0), 0);
        assert_eq!(c.bank_of(64), 1);
        assert_eq!(c.bank_of(64 * 16), 0);
    }

    #[test]
    fn tiny_is_valid() {
        assert_eq!(MemConfig::tiny().check(), Ok(()));
        assert_eq!(MemConfig::tiny().l1_sets(), 8);
    }

    #[test]
    fn rejects_zero_associativity() {
        let c = MemConfig {
            l1_assoc: 0,
            ..MemConfig::tiny()
        };
        assert_eq!(c.check(), Err(ConfigError::ZeroAssociativity));
        let c = MemConfig {
            l2_assoc: 0,
            ..MemConfig::tiny()
        };
        assert_eq!(c.check(), Err(ConfigError::ZeroAssociativity));
    }

    #[test]
    fn rejects_zero_banks() {
        let c = MemConfig {
            l2_banks: 0,
            ..MemConfig::tiny()
        };
        assert_eq!(c.check(), Err(ConfigError::NoBanks));
    }

    #[test]
    fn rejects_undivisible_l1() {
        let c = MemConfig {
            l1_bytes: 1000,
            ..MemConfig::tiny()
        };
        assert_eq!(
            c.check(),
            Err(ConfigError::L1NotSetDivisible {
                l1_bytes: 1000,
                assoc: 2,
            })
        );
    }

    #[test]
    fn rejects_zero_l1_sets() {
        let c = MemConfig {
            l1_bytes: 0,
            ..MemConfig::tiny()
        };
        assert_eq!(c.check(), Err(ConfigError::NoL1Sets));
    }

    #[test]
    fn rejects_zero_l2_sets() {
        let c = MemConfig {
            l2_bytes: 128,
            l2_assoc: 2,
            l2_banks: 2,
            ..MemConfig::tiny()
        };
        assert_eq!(c.check(), Err(ConfigError::NoL2Sets));
    }

    #[test]
    fn rejects_non_power_of_two_geometry() {
        // 1,536 B / 64 B / 2 ways = 12 L1 sets.
        let c = MemConfig {
            l1_bytes: 1536,
            ..MemConfig::tiny()
        };
        assert_eq!(
            c.check(),
            Err(ConfigError::GeometryNotPowerOfTwo {
                what: "L1 sets",
                count: 12,
            })
        );
        // 12 KiB / 64 B / 2 ways / 2 banks = 48 sets per bank.
        let c = MemConfig {
            l2_bytes: 12 * 1024,
            ..MemConfig::tiny()
        };
        assert_eq!(
            c.check(),
            Err(ConfigError::GeometryNotPowerOfTwo {
                what: "L2 sets per bank",
                count: 48,
            })
        );
        // 24 KiB / 64 B / 2 ways over 3 banks = 64 sets per bank: only
        // the bank count is off.
        let c = MemConfig {
            l2_banks: 3,
            l2_bytes: 3 * 8 * 1024,
            ..MemConfig::tiny()
        };
        assert_eq!(
            c.check(),
            Err(ConfigError::GeometryNotPowerOfTwo {
                what: "L2 banks",
                count: 3,
            })
        );
        let err = c.check().unwrap_err().to_string();
        assert!(
            err.contains("L2 banks must be a power of two (got 3)"),
            "{err}"
        );
        for c in [MemConfig::default(), MemConfig::tiny()] {
            assert_eq!(c.check(), Ok(()));
        }
    }

    #[test]
    fn interleave_round_trips_and_rejects_bad_geometry() {
        let i = LineInterleave::new(2048);
        assert_eq!(
            glsc_wire::from_bytes::<LineInterleave>(&glsc_wire::to_bytes(&i)),
            Ok(i)
        );
        // Six slots: the decoder refuses it instead of building a mask
        // that would address the wrong slots.
        let mut w = glsc_wire::Writer::new();
        6usize.encode(&mut w);
        assert!(glsc_wire::from_bytes::<LineInterleave>(&w.into_bytes()).is_err());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn interleave_rejects_non_power_of_two_slots() {
        let _ = LineInterleave::new(12);
    }

    #[test]
    fn rejects_empty_reservation_buffer() {
        let c = MemConfig {
            glsc_buffer_entries: Some(0),
            ..MemConfig::tiny()
        };
        assert_eq!(c.check(), Err(ConfigError::ZeroBufferEntries));
    }

    #[test]
    fn rejects_zero_holdoff_window() {
        let c = MemConfig {
            arbitration: ArbitrationPolicy::NackHoldoff { window: 0 },
            ..MemConfig::tiny()
        };
        assert_eq!(c.check(), Err(ConfigError::ZeroHoldoffWindow));
        // The other policies need no parameters and always pass.
        for policy in [ArbitrationPolicy::Free, ArbitrationPolicy::AgedPriority] {
            let c = MemConfig {
                arbitration: policy,
                ..MemConfig::tiny()
            };
            assert_eq!(c.check(), Ok(()));
        }
    }

    #[test]
    fn rejection_renders_its_message() {
        let err = MemConfig {
            l1_bytes: 1000,
            ..MemConfig::tiny()
        }
        .check()
        .unwrap_err();
        assert!(
            err.to_string()
                .contains("L1 capacity must divide into sets (1000 B / (64 B x 2 ways))"),
            "{err}"
        );
    }
}

glsc_wire::wire_struct!(MemConfig {
    l1_bytes,
    l1_assoc,
    l2_bytes,
    l2_assoc,
    l2_banks,
    dram_latency,
    glsc_buffer_entries,
    prefetch,
    noc,
    arbitration,
    memory_order,
});
