//! Memory-system configuration (Table 1 of the paper).

use crate::arbitration::ArbitrationPolicy;
use crate::errors::ConfigError;
use crate::noc::NocConfig;
use crate::ordering::MemoryOrder;

/// Parameters of the simulated memory hierarchy. [`MemConfig::default`]
/// reproduces Table 1 of the paper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// Cache line size in bytes (64).
    pub line_bytes: u64,
    /// Private L1 data cache capacity in bytes (32 KB).
    pub l1_bytes: u64,
    /// L1 associativity (4).
    pub l1_assoc: usize,
    /// L1 hit latency in cycles (3).
    pub l1_hit_latency: u64,
    /// Shared L2 capacity in bytes (16 MB).
    pub l2_bytes: u64,
    /// L2 associativity (8).
    pub l2_assoc: usize,
    /// Number of L2 banks (16).
    pub l2_banks: usize,
    /// Minimum L2 access latency in cycles, including the interconnect (12).
    pub l2_latency: u64,
    /// Cycles a bank stays busy per request (models bank contention).
    pub l2_bank_occupancy: u64,
    /// Extra latency when data must be forwarded from another core's
    /// modified L1 copy (cache-to-cache transfer).
    pub dirty_forward_extra: u64,
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
    /// Lines fetched ahead once a stride stream is confirmed.
    pub prefetch_degree: usize,
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
            line_bytes: 64,
            l1_bytes: 32 * 1024,
            l1_assoc: 4,
            l1_hit_latency: 3,
            l2_bytes: 16 * 1024 * 1024,
            l2_assoc: 8,
            l2_banks: 16,
            l2_latency: 12,
            l2_bank_occupancy: 2,
            dirty_forward_extra: 12,
            dram_latency: 280,
            glsc_buffer_entries: None,
            prefetch: true,
            prefetch_degree: 2,
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
            line_bytes: 64,
            l1_bytes: 1024,
            l1_assoc: 2,
            l1_hit_latency: 3,
            l2_bytes: 8 * 1024,
            l2_assoc: 2,
            l2_banks: 2,
            l2_latency: 12,
            l2_bank_occupancy: 2,
            dirty_forward_extra: 12,
            dram_latency: 280,
            glsc_buffer_entries: None,
            prefetch: false,
            prefetch_degree: 2,
            noc: NocConfig::ideal(),
            arbitration: ArbitrationPolicy::Free,
            memory_order: MemoryOrder::Sc,
        }
    }

    /// Number of L1 sets.
    pub fn l1_sets(&self) -> usize {
        (self.l1_bytes / self.line_bytes) as usize / self.l1_assoc
    }

    /// Number of sets in each L2 bank.
    pub fn l2_sets_per_bank(&self) -> usize {
        (self.l2_bytes / self.line_bytes) as usize / self.l2_assoc / self.l2_banks
    }

    /// The L2 bank serving a given line address (consecutive lines go to
    /// consecutive banks, as in a physically distributed L2).
    pub fn bank_of(&self, line: u64) -> usize {
        ((line / self.line_bytes) % self.l2_banks as u64) as usize
    }

    /// Checks internal consistency (powers of two, non-zero ways),
    /// returning the first violated constraint as a typed value.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found; see its variants for the
    /// complete list of constraints.
    pub fn check(&self) -> Result<(), ConfigError> {
        if !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::LineBytesNotPowerOfTwo {
                line_bytes: self.line_bytes,
            });
        }
        if self.l1_assoc == 0 || self.l2_assoc == 0 {
            return Err(ConfigError::ZeroAssociativity);
        }
        if self.l2_banks == 0 {
            return Err(ConfigError::NoBanks);
        }
        if !self
            .l1_bytes
            .is_multiple_of(self.line_bytes * self.l1_assoc as u64)
        {
            return Err(ConfigError::L1NotSetDivisible {
                l1_bytes: self.l1_bytes,
                line_bytes: self.line_bytes,
                assoc: self.l1_assoc,
            });
        }
        if self.l1_sets() == 0 {
            return Err(ConfigError::NoL1Sets);
        }
        if self.l2_sets_per_bank() == 0 {
            return Err(ConfigError::NoL2Sets);
        }
        if self.glsc_buffer_entries == Some(0) {
            return Err(ConfigError::ZeroBufferEntries);
        }
        if self.arbitration == (ArbitrationPolicy::NackHoldoff { window: 0 }) {
            return Err(ConfigError::ZeroHoldoffWindow);
        }
        self.noc.check()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_1() {
        let c = MemConfig::default();
        assert_eq!(c.check(), Ok(()));
        assert_eq!(c.l1_sets(), 128); // 32KB / 64B / 4-way
        assert_eq!(c.l1_hit_latency, 3);
        assert_eq!(c.l2_latency, 12);
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
    fn rejects_non_power_of_two_line() {
        let c = MemConfig {
            line_bytes: 48,
            ..MemConfig::tiny()
        };
        assert_eq!(
            c.check(),
            Err(ConfigError::LineBytesNotPowerOfTwo { line_bytes: 48 })
        );
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
                line_bytes: 64,
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
    fn rejects_bad_noc_parameters() {
        let c = MemConfig {
            noc: NocConfig {
                link_latency: 0,
                ..NocConfig::ring()
            },
            ..MemConfig::tiny()
        };
        assert_eq!(c.check(), Err(ConfigError::NocZeroLinkLatency));
        let c = MemConfig {
            noc: NocConfig {
                link_occupancy: 0,
                ..NocConfig::crossbar()
            },
            ..MemConfig::tiny()
        };
        assert_eq!(c.check(), Err(ConfigError::NocZeroLinkBandwidth));
        let c = MemConfig {
            noc: NocConfig::ring().with_nodes(0),
            ..MemConfig::tiny()
        };
        assert_eq!(c.check(), Err(ConfigError::NocZeroNodes));
        // A well-formed non-ideal fabric passes.
        let c = MemConfig {
            noc: NocConfig::ring(),
            ..MemConfig::tiny()
        };
        assert_eq!(c.check(), Ok(()));
    }

    #[test]
    fn rejection_renders_its_message() {
        let err = MemConfig {
            line_bytes: 48,
            ..MemConfig::tiny()
        }
        .check()
        .unwrap_err();
        assert!(
            err.to_string().contains("line size must be a power of two"),
            "{err}"
        );
    }
}

glsc_wire::wire_struct!(MemConfig {
    line_bytes,
    l1_bytes,
    l1_assoc,
    l1_hit_latency,
    l2_bytes,
    l2_assoc,
    l2_banks,
    l2_latency,
    l2_bank_occupancy,
    dirty_forward_extra,
    dram_latency,
    glsc_buffer_entries,
    prefetch,
    prefetch_degree,
    noc,
    arbitration,
    memory_order,
});
