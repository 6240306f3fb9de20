//! Memory-system event counters.

use crate::noc::NocStats;

/// Counters collected by [`crate::MemorySystem`]. All counts are
/// machine-wide; per-thread instruction statistics live in `glsc-sim`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Demand accesses that hit in an L1.
    pub l1_hits: u64,
    /// Demand accesses that missed in an L1.
    pub l1_misses: u64,
    /// L1 misses that hit in the L2.
    pub l2_hits: u64,
    /// L1 misses that also missed in the L2 (DRAM fills).
    pub l2_misses: u64,
    /// Store upgrades (Shared -> Modified at the directory).
    pub upgrades: u64,
    /// L1 copies invalidated by coherence (stores by other cores).
    pub invalidations: u64,
    /// L1 copies invalidated to keep the L2 inclusive.
    pub back_invalidations: u64,
    /// Dirty lines forwarded from a remote L1 (cache-to-cache).
    pub dirty_forwards: u64,
    /// Store-conditional requests that failed the reservation check.
    pub sc_failures: u64,
    /// Store-conditional requests that succeeded.
    pub sc_successes: u64,
    /// Reservations cleared by stores from other threads/cores.
    pub reservations_cleared_by_stores: u64,
    /// Prefetch requests issued.
    pub prefetches_issued: u64,
    /// Prefetches dropped because the line was already resident.
    pub prefetches_redundant: u64,
    /// Demand accesses that found their line still in flight (fill pending).
    pub hits_under_miss: u64,
    /// Invalidation acknowledgements returned to the directory (one per
    /// invalidation or downgrade-probe message sent over the fabric).
    pub inv_acks: u64,
    /// Dirty-line writebacks from an L1 to its home bank (natural
    /// evictions, chaos evictions, and back-invalidations of Modified
    /// copies).
    pub writebacks: u64,
    /// Reservations displaced from the §3.3 fully-associative buffer
    /// (capacity overflow on insertion plus chaos-forced evictions;
    /// always zero in the default per-line-tag mode). Unlike the
    /// lifetime tally in `glsc-mem::l1`, this counter participates in
    /// `reset_stats` like every other event count.
    pub reservation_buffer_evictions: u64,
    /// Per-global-thread store-conditional forward-progress telemetry,
    /// indexed by `core * threads_per_core + tid`. Sized at construction;
    /// empty only for a default-constructed `MemStats`.
    pub sc_threads: Vec<ThreadScStats>,
    /// On-die interconnect counters (per message class and per link).
    pub noc: NocStats,
}

/// Store-conditional forward-progress counters for one hardware thread
/// (DESIGN.md §12). Pure observation: these update identically under
/// every [`ArbitrationPolicy`](crate::ArbitrationPolicy) and never feed
/// back into timing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadScStats {
    /// Store-conditional requests presented at the L1 port.
    pub attempts: u64,
    /// Attempts that committed.
    pub successes: u64,
    /// Attempts that failed (lost reservation, or refused by the active
    /// arbitration policy).
    pub failures: u64,
    /// Length of the current run of consecutive failures.
    pub cur_streak: u64,
    /// High-water mark of consecutive failures — the starvation signal
    /// the `glsc-sim` watchdog thresholds on.
    pub max_streak: u64,
}

impl ThreadScStats {
    /// Records one failed attempt.
    pub fn record_failure(&mut self) {
        self.attempts += 1;
        self.failures += 1;
        self.cur_streak += 1;
        self.max_streak = self.max_streak.max(self.cur_streak);
    }

    /// Records one committed attempt, ending any failure run.
    pub fn record_success(&mut self) {
        self.attempts += 1;
        self.successes += 1;
        self.cur_streak = 0;
    }
}

impl MemStats {
    /// Total demand L1 accesses.
    pub fn l1_accesses(&self) -> u64 {
        self.l1_hits + self.l1_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_sc_streak_bookkeeping() {
        let mut t = ThreadScStats::default();
        t.record_failure();
        t.record_failure();
        t.record_success();
        t.record_failure();
        assert_eq!(t.attempts, 4);
        assert_eq!(t.successes, 1);
        assert_eq!(t.failures, 3);
        assert_eq!(t.cur_streak, 1);
        assert_eq!(t.max_streak, 2);
    }

    #[test]
    fn l1_accesses_count_hits_and_misses() {
        let mut s = MemStats::default();
        assert_eq!(s.l1_accesses(), 0);
        s.l1_hits = 3;
        s.l1_misses = 1;
        assert_eq!(s.l1_accesses(), 4);
    }
}

glsc_wire::wire_struct!(ThreadScStats {
    attempts,
    successes,
    failures,
    cur_streak,
    max_streak,
});
glsc_wire::wire_struct!(MemStats {
    l1_hits,
    l1_misses,
    l2_hits,
    l2_misses,
    upgrades,
    invalidations,
    back_invalidations,
    dirty_forwards,
    sc_failures,
    sc_successes,
    reservations_cleared_by_stores,
    prefetches_issued,
    prefetches_redundant,
    hits_under_miss,
    inv_acks,
    writebacks,
    reservation_buffer_evictions,
    sc_threads,
    noc,
});
