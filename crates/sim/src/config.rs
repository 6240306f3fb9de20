//! Whole-machine configuration (Table 1 of the paper).

use glsc_core::GlscConfig;
use glsc_mem::{MemConfig, MAX_CORES, MAX_THREADS_PER_CORE};
use std::fmt;

/// A rejected machine-configuration parameter.
///
/// Produced by [`MachineConfig::check`] and
/// [`Machine::try_new`](crate::Machine::try_new).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// Core count outside 1..=[`MAX_CORES`].
    CoresOutOfRange {
        /// The offending core count.
        cores: usize,
    },
    /// SMT threads per core outside 1..=[`MAX_THREADS_PER_CORE`].
    ThreadsPerCoreOutOfRange {
        /// The offending thread count.
        threads_per_core: usize,
    },
    /// SIMD width outside 1..=[`glsc_isa::MAX_SIMD_WIDTH`].
    SimdWidthOutOfRange {
        /// The offending width.
        simd_width: usize,
    },
    /// Cycle budget (`max_cycles`) is zero — the machine could never step.
    ZeroCycleBudget,
    /// Watchdog window is zero — the watchdog would fire on cycle 0.
    ZeroWatchdogWindow,
    /// Invariant-check period is zero.
    ZeroInvariantCheckPeriod,
    /// Starvation threshold is zero — every store-conditional would be
    /// "starved" before its first attempt.
    ZeroStarvationThreshold,
    /// The memory-hierarchy parameters were rejected.
    Mem(glsc_mem::ConfigError),
}

impl From<glsc_mem::ConfigError> for ConfigError {
    fn from(e: glsc_mem::ConfigError) -> Self {
        ConfigError::Mem(e)
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::CoresOutOfRange { cores } => {
                write!(f, "1..={MAX_CORES} cores (got {cores})")
            }
            ConfigError::ThreadsPerCoreOutOfRange { threads_per_core } => {
                write!(
                    f,
                    "1..={MAX_THREADS_PER_CORE} threads per core (got {threads_per_core})"
                )
            }
            ConfigError::SimdWidthOutOfRange { simd_width } => {
                write!(
                    f,
                    "SIMD width 1..={} (got {simd_width})",
                    glsc_isa::MAX_SIMD_WIDTH
                )
            }
            ConfigError::ZeroCycleBudget => write!(f, "cycle budget must be non-zero"),
            ConfigError::ZeroWatchdogWindow => write!(f, "watchdog window must be non-zero"),
            ConfigError::ZeroInvariantCheckPeriod => {
                write!(f, "invariant check period must be non-zero")
            }
            ConfigError::ZeroStarvationThreshold => {
                write!(f, "starvation threshold must be non-zero")
            }
            ConfigError::Mem(e) => write!(f, "memory config: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

/// Full machine configuration: the parameters runs vary. The Table 1
/// values no run varies are constants of the crate that uses them
/// (DESIGN.md §3): functional-unit latencies and the 1-cycle taken-branch
/// penalty and the 2-wide issue here, the GSU and LSU timings in
/// `glsc-core`, the line size
/// and cache and link timings in `glsc-mem`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of cores (paper: 1–4).
    pub cores: usize,
    /// SMT threads per core (paper: 1–4).
    pub threads_per_core: usize,
    /// SIMD width in 32-bit elements (paper: 1, 4, 16).
    pub simd_width: usize,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// GLSC policy knobs.
    pub glsc: GlscConfig,
    /// Safety bound: [`crate::Machine::run`] fails with
    /// [`SimError::MaxCyclesExceeded`](crate::SimError) after this many
    /// cycles.
    pub max_cycles: u64,
    /// Forward-progress watchdog: if no thread in the whole machine issues
    /// an instruction for this many consecutive cycles, the run aborts
    /// with [`SimError::Livelock`](crate::SimError) carrying a diagnostic
    /// dump. `None` disables the watchdog. Note that a GLSC retry storm is
    /// *not* a livelock by this definition (the retry loop keeps issuing);
    /// the watchdog catches true scheduling deadlocks — e.g. barrier
    /// mismatches — long before the cycle budget does.
    pub watchdog_window: Option<u64>,
    /// Debug flag: check the memory system's coherence invariants every
    /// this many cycles, aborting with
    /// [`SimError::InvariantViolation`](crate::SimError) on failure.
    /// `None` (the default) skips the checks entirely.
    pub invariant_check_period: Option<u64>,
    /// Starvation detector: if any hardware thread accumulates this many
    /// *consecutive* store-conditional failures, the run aborts with
    /// [`SimError::Starvation`](crate::SimError) naming the starved
    /// thread, its failure streak, the per-thread failure census (with
    /// Jain's fairness index in the rendered message) and the competing
    /// reservation holders. Catches the retry storms the livelock
    /// watchdog cannot (a storm keeps issuing). `None` (the default)
    /// disables the detector.
    pub starvation_threshold: Option<u64>,
}

impl MachineConfig {
    /// The paper's configuration `cores`×`threads` with the given SIMD
    /// width (Table 1 memory parameters).
    pub fn paper(cores: usize, threads_per_core: usize, simd_width: usize) -> Self {
        Self {
            cores,
            threads_per_core,
            simd_width,
            mem: MemConfig::default(),
            glsc: GlscConfig::default(),
            max_cycles: 2_000_000_000,
            watchdog_window: Some(1_000_000),
            invariant_check_period: None,
            starvation_threshold: None,
        }
    }

    /// Sets the cycle budget (builder style).
    #[must_use]
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Sets (or disables, with `None`) the forward-progress watchdog
    /// window (builder style).
    #[must_use]
    pub fn with_watchdog_window(mut self, window: Option<u64>) -> Self {
        self.watchdog_window = window;
        self
    }

    /// Enables periodic coherence invariant checking every `period` cycles
    /// (or disables it with `None`; builder style).
    #[must_use]
    pub fn with_invariant_checks(mut self, period: Option<u64>) -> Self {
        self.invariant_check_period = period;
        self
    }

    /// Selects the on-die interconnect between the L1s and the L2 banks
    /// (builder style). The default [`glsc_mem::Topology::Ideal`] fabric
    /// reproduces the fixed-latency timing exactly; ring and crossbar
    /// fabrics add hop latency and link contention (the `noc_contention`
    /// figure sweeps these).
    #[must_use]
    pub fn with_noc(mut self, noc: glsc_mem::NocConfig) -> Self {
        self.mem.noc = noc;
        self
    }

    /// Selects the memory consistency model (builder style). The default
    /// [`glsc_mem::MemoryOrder::Sc`] routes every request through the
    /// shared LSU queue and reproduces the historical timing exactly; the
    /// relaxed models enable the per-thread write buffers (DESIGN.md §17;
    /// the litmus harness exercises all three).
    #[must_use]
    pub fn with_memory_order(mut self, order: glsc_mem::MemoryOrder) -> Self {
        self.mem.memory_order = order;
        self
    }

    /// Enables the starvation detector at `threshold` consecutive SC
    /// failures per thread (or disables it with `None`; builder style).
    #[must_use]
    pub fn with_starvation_threshold(mut self, threshold: Option<u64>) -> Self {
        self.starvation_threshold = threshold;
        self
    }

    /// Selects the reservation arbitration policy of the memory system
    /// (builder style). The default
    /// [`ArbitrationPolicy::Free`](glsc_mem::ArbitrationPolicy)
    /// reproduces the historical first-committer-wins timing exactly;
    /// the `contention_policies` figure sweeps the alternatives.
    #[must_use]
    pub fn with_arbitration(mut self, policy: glsc_mem::ArbitrationPolicy) -> Self {
        self.mem.arbitration = policy;
        self
    }

    /// Total software threads (`m × n` in the paper's notation).
    pub fn total_threads(&self) -> usize {
        self.cores * self.threads_per_core
    }

    /// Checks the configuration, returning the first out-of-range
    /// parameter as a typed value.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found (machine shape first, then the
    /// embedded [`MemConfig`]).
    pub fn check(&self) -> Result<(), ConfigError> {
        if !(1..=MAX_CORES).contains(&self.cores) {
            return Err(ConfigError::CoresOutOfRange { cores: self.cores });
        }
        if !(1..=MAX_THREADS_PER_CORE).contains(&self.threads_per_core) {
            return Err(ConfigError::ThreadsPerCoreOutOfRange {
                threads_per_core: self.threads_per_core,
            });
        }
        if self.simd_width == 0 || self.simd_width > glsc_isa::MAX_SIMD_WIDTH {
            return Err(ConfigError::SimdWidthOutOfRange {
                simd_width: self.simd_width,
            });
        }
        if self.max_cycles == 0 {
            return Err(ConfigError::ZeroCycleBudget);
        }
        if self.watchdog_window == Some(0) {
            return Err(ConfigError::ZeroWatchdogWindow);
        }
        if self.invariant_check_period == Some(0) {
            return Err(ConfigError::ZeroInvariantCheckPeriod);
        }
        if self.starvation_threshold == Some(0) {
            return Err(ConfigError::ZeroStarvationThreshold);
        }
        self.mem.check()?;
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::paper(4, 4, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_shape() {
        let c = MachineConfig::paper(4, 4, 4);
        assert_eq!(c.check(), Ok(()));
        assert_eq!(c.total_threads(), 16);
        assert_eq!(c.mem, MemConfig::default());
    }

    #[test]
    fn invalid_width_rejected() {
        let err = MachineConfig::paper(1, 1, 64).check().unwrap_err();
        assert!(err.to_string().contains("SIMD width"), "{err}");
    }

    #[test]
    fn typed_rejections() {
        assert_eq!(
            MachineConfig::paper(0, 1, 4).check(),
            Err(ConfigError::CoresOutOfRange { cores: 0 })
        );
        assert_eq!(
            MachineConfig::paper(33, 1, 4).check(),
            Err(ConfigError::CoresOutOfRange { cores: 33 })
        );
        assert_eq!(
            MachineConfig::paper(1, 9, 4).check(),
            Err(ConfigError::ThreadsPerCoreOutOfRange {
                threads_per_core: 9
            })
        );
        assert_eq!(
            MachineConfig::paper(1, 1, 64).check(),
            Err(ConfigError::SimdWidthOutOfRange { simd_width: 64 })
        );
        let c = MachineConfig::paper(1, 1, 4).with_max_cycles(0);
        assert_eq!(c.check(), Err(ConfigError::ZeroCycleBudget));
        let c = MachineConfig::paper(1, 1, 4).with_watchdog_window(Some(0));
        assert_eq!(c.check(), Err(ConfigError::ZeroWatchdogWindow));
        let c = MachineConfig::paper(1, 1, 4).with_invariant_checks(Some(0));
        assert_eq!(c.check(), Err(ConfigError::ZeroInvariantCheckPeriod));
        let c = MachineConfig::paper(1, 1, 4).with_starvation_threshold(Some(0));
        assert_eq!(c.check(), Err(ConfigError::ZeroStarvationThreshold));
        let c = MachineConfig::paper(1, 1, 4)
            .with_arbitration(glsc_mem::ArbitrationPolicy::NackHoldoff { window: 0 });
        assert_eq!(
            c.check(),
            Err(ConfigError::Mem(glsc_mem::ConfigError::ZeroHoldoffWindow))
        );
    }

    #[test]
    fn builders_set_fields() {
        let c = MachineConfig::paper(1, 1, 4)
            .with_max_cycles(123)
            .with_watchdog_window(None)
            .with_invariant_checks(Some(64))
            .with_noc(glsc_mem::NocConfig::ring())
            .with_starvation_threshold(Some(1000))
            .with_arbitration(glsc_mem::ArbitrationPolicy::AgedPriority)
            .with_memory_order(glsc_mem::MemoryOrder::Tso);
        assert_eq!(c.mem.memory_order, glsc_mem::MemoryOrder::Tso);
        assert_eq!(c.max_cycles, 123);
        assert_eq!(c.watchdog_window, None);
        assert_eq!(c.invariant_check_period, Some(64));
        assert_eq!(c.mem.noc, glsc_mem::NocConfig::ring());
        assert_eq!(c.starvation_threshold, Some(1000));
        assert_eq!(c.mem.arbitration, glsc_mem::ArbitrationPolicy::AgedPriority);
        assert_eq!(c.check(), Ok(()));
    }
}

glsc_wire::wire_struct!(MachineConfig {
    cores,
    threads_per_core,
    simd_width,
    mem,
    glsc,
    max_cycles,
    watchdog_window,
    invariant_check_period,
    starvation_threshold,
});
