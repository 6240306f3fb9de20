//! Deterministic fault injection for the memory system.
//!
//! §3.2 of the paper requires GLSC to stay *correct* (atomic, and making
//! forward progress) while reservations are destroyed underneath it by
//! hostile-but-legal events: conflicting writes from other threads,
//! context switches that flush reservation state, cache-line evictions,
//! and prefetch interference. §3.3's fully-associative reservation buffer
//! adds a capacity-overflow destruction path. This module turns those
//! events into *injectable faults* so tests can drive the protocol far
//! off the happy path and then check the atomicity oracle (results still
//! match the scalar reference) and forward progress (the run terminates).
//!
//! Every fault is **destructive-only**: faults clear reservations, evict
//! lines, or delay fills — they never *grant* a reservation a thread did
//! not earn. §3 explicitly allows spurious reservation loss (the software
//! retry loop absorbs it); spurious reservation *gain* would let an `sc`
//! or `vscattercond` element commit without a live link and break
//! atomicity, so no such fault exists here.
//!
//! The plan is driven by the workspace's deterministic [`glsc_rng`]
//! generator, so a `(seed, workload)` pair replays the exact same fault
//! sequence on every run and platform. With no [`FaultPlan`] installed
//! the memory system takes a single `Option::is_some` branch per access
//! and is otherwise byte-for-byte identical to the fault-free build.
//!
//! | Fault | Models (paper) |
//! |-------|----------------|
//! | [`ChaosStats::reservations_cleared`] | §3.2 conflicting write killing one line's links |
//! | [`ChaosStats::core_flushes`] | §3.2 context switch flushing a core's reservation state |
//! | [`ChaosStats::lines_evicted`] | §3.2 eviction / prefetch displacing a reserved line |
//! | [`ChaosStats::jitter_cycles`] | DRAM timing variation reordering fill completions |
//! | [`ChaosStats::forced_buffer_evictions`] | §3.3 reservation-buffer capacity overflow |

use glsc_rng::rngs::StdRng;
use glsc_rng::SeedableRng;

/// Tuning knobs for a [`FaultPlan`]. All probabilities are evaluated at
/// *injection points* — every [`period`](ChaosConfig::period)-th accepted
/// L1 access — and each fault kind is rolled independently, so several
/// faults can land on the same injection point.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the plan's private RNG; the entire fault sequence is a
    /// pure function of this seed and the access stream.
    pub seed: u64,
    /// An injection point occurs every `period` accepted L1 accesses
    /// (minimum 1 = every access).
    pub period: u64,
    /// Probability of clearing every reservation on one randomly chosen
    /// reserved line of a random core (a conflicting write, §3.2).
    pub clear_line_prob: f64,
    /// Probability of clearing *all* reservations of a random core (a
    /// context-switch flush, §3.2).
    pub flush_core_prob: f64,
    /// Probability of force-evicting one random resident L1 line of a
    /// random core, with full directory bookkeeping (capacity/prefetch
    /// displacement, §3.2).
    pub evict_line_prob: f64,
    /// Probability of scheduling extra DRAM latency for the next L2 miss.
    pub dram_jitter_prob: f64,
    /// Maximum extra DRAM cycles per jitter event (uniform in
    /// `1..=dram_jitter_max`; 0 disables jitter entirely).
    pub dram_jitter_max: u64,
    /// Probability of force-evicting the oldest entry of a random core's
    /// §3.3 reservation buffer (capacity-overflow pressure; no-op in
    /// per-line-tag mode).
    pub buffer_pressure_prob: f64,
    /// Probability of delaying the next interconnect message's departure
    /// (fabric arbitration jitter; destructive-only — it delays, never
    /// reorders or drops).
    pub link_jitter_prob: f64,
    /// Maximum extra cycles per link-jitter event (uniform in
    /// `1..=link_jitter_max`; 0 disables link jitter entirely).
    pub link_jitter_max: u64,
}

impl ChaosConfig {
    /// A moderate all-fault plan derived from `seed`: frequent enough to
    /// perturb every kernel's atomic phase, gentle enough that retry
    /// loops still converge quickly.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            seed,
            period: 5,
            clear_line_prob: 0.25,
            flush_core_prob: 0.05,
            evict_line_prob: 0.20,
            dram_jitter_prob: 0.30,
            dram_jitter_max: 48,
            buffer_pressure_prob: 0.25,
            link_jitter_prob: 0.20,
            link_jitter_max: 8,
        }
    }

    /// An aggressive plan for stress tests: injection on every access and
    /// high fault rates. Retry loops still converge (the RNG re-rolls
    /// every attempt) but sc/element failure rates become large.
    pub fn aggressive(seed: u64) -> Self {
        Self {
            seed,
            period: 1,
            clear_line_prob: 0.5,
            flush_core_prob: 0.10,
            evict_line_prob: 0.35,
            dram_jitter_prob: 0.5,
            dram_jitter_max: 128,
            buffer_pressure_prob: 0.5,
            link_jitter_prob: 0.4,
            link_jitter_max: 32,
        }
    }
}

/// Counters of the faults a [`FaultPlan`] actually injected. Tests use
/// these to prove the perturbation was real (a chaos run that injected
/// nothing proves nothing).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Injection points reached (every `period`-th access).
    pub injection_points: u64,
    /// Single-line reservation clears performed.
    pub reservations_cleared: u64,
    /// Whole-core reservation flushes performed.
    pub core_flushes: u64,
    /// L1 lines force-evicted.
    pub lines_evicted: u64,
    /// DRAM jitter events scheduled.
    pub jitter_events: u64,
    /// Total extra DRAM cycles scheduled across all jitter events.
    pub jitter_cycles: u64,
    /// Oldest-entry evictions forced on §3.3 reservation buffers.
    pub forced_buffer_evictions: u64,
    /// Interconnect link-jitter events scheduled.
    pub link_jitter_events: u64,
    /// Total extra departure-delay cycles across all link-jitter events.
    pub link_jitter_cycles: u64,
}

impl ChaosStats {
    /// Total state-destroying faults injected (jitter excluded: it delays
    /// but destroys nothing).
    pub fn total_destructive(&self) -> u64 {
        self.reservations_cleared
            + self.core_flushes
            + self.lines_evicted
            + self.forced_buffer_evictions
    }

    /// Total faults of any kind.
    pub fn total_faults(&self) -> u64 {
        self.total_destructive() + self.jitter_events + self.link_jitter_events
    }
}

/// A live, seeded fault-injection plan. Install into a memory system with
/// [`MemorySystem::install_fault_plan`](crate::MemorySystem::install_fault_plan);
/// the system consults it on every accepted L1 access.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    pub(crate) cfg: ChaosConfig,
    pub(crate) rng: StdRng,
    pub(crate) accesses: u64,
    pub(crate) stats: ChaosStats,
}

impl FaultPlan {
    /// Builds a plan from its configuration. `period` is clamped to at
    /// least 1.
    pub fn new(mut cfg: ChaosConfig) -> Self {
        cfg.period = cfg.period.max(1);
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self {
            cfg,
            rng,
            accesses: 0,
            stats: ChaosStats::default(),
        }
    }

    /// Shorthand for `FaultPlan::new(ChaosConfig::from_seed(seed))`.
    pub fn from_seed(seed: u64) -> Self {
        Self::new(ChaosConfig::from_seed(seed))
    }

    /// The configuration in effect.
    pub fn cfg(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Faults injected so far.
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Accepted L1 accesses observed so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic() {
        let a = FaultPlan::from_seed(7);
        let b = FaultPlan::from_seed(7);
        assert_eq!(a.cfg(), b.cfg());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn period_clamped_to_one() {
        let plan = FaultPlan::new(ChaosConfig {
            period: 0,
            ..ChaosConfig::from_seed(0)
        });
        assert_eq!(plan.cfg().period, 1);
    }

    #[test]
    fn stats_totals() {
        let s = ChaosStats {
            reservations_cleared: 2,
            core_flushes: 1,
            lines_evicted: 3,
            jitter_events: 4,
            forced_buffer_evictions: 5,
            link_jitter_events: 6,
            ..ChaosStats::default()
        };
        assert_eq!(s.total_destructive(), 11);
        assert_eq!(s.total_faults(), 21);
    }
}

// ---- wire serialization --------------------------------------------------

glsc_wire::wire_struct!(ChaosConfig {
    seed,
    period,
    clear_line_prob,
    flush_core_prob,
    evict_line_prob,
    dram_jitter_prob,
    dram_jitter_max,
    buffer_pressure_prob,
    link_jitter_prob,
    link_jitter_max,
});
glsc_wire::wire_struct!(ChaosStats {
    injection_points,
    reservations_cleared,
    core_flushes,
    lines_evicted,
    jitter_events,
    jitter_cycles,
    forced_buffer_evictions,
    link_jitter_events,
    link_jitter_cycles,
});

// The RNG travels as its raw xoshiro state words: a resumed fault plan
// must draw the exact tail of the sequence the interrupted plan would
// have drawn, or chaos counters diverge from the uninterrupted run.
impl glsc_wire::Wire for FaultPlan {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        let Self {
            cfg,
            rng,
            accesses,
            stats,
        } = self;
        cfg.encode(w);
        rng.state().encode(w);
        accesses.encode(w);
        stats.encode(w);
    }
    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        use glsc_wire::Wire;
        Ok(Self {
            cfg: Wire::decode(r)?,
            rng: StdRng::from_state(Wire::decode(r)?),
            accesses: Wire::decode(r)?,
            stats: Wire::decode(r)?,
        })
    }
}
