//! Run statistics: per-thread counters and the aggregated report used by
//! the benchmark harness to regenerate the paper's tables and figures.

use glsc_core::{GsuStats, LsuStats};
use glsc_mem::MemStats;

/// Counters for one hardware thread.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Dynamic instructions issued.
    pub instructions: u64,
    /// Dynamic instructions issued inside synchronization regions.
    pub sync_instructions: u64,
    /// Cycles from start until the thread halted.
    pub active_cycles: u64,
    /// Cycles attributed to synchronization (issued a sync-region
    /// instruction, or stalled on one) — Figure 5(a).
    pub sync_cycles: u64,
    /// Cycles stalled waiting on memory (blocked vector/GSU ops, pending
    /// load operands, full write buffer) — Table 4 "Memory Stalls".
    pub mem_stall_cycles: u64,
    /// Cycles stalled on functional-unit latency.
    pub compute_stall_cycles: u64,
    /// Cycles stalled because the core's issue slots were taken by other
    /// SMT threads.
    pub issue_stall_cycles: u64,
    /// Cycles spent waiting at barriers.
    pub barrier_cycles: u64,
    /// Atomic elements this thread completed: successful scalar `sc`s
    /// plus elements committed by its `vscattercond`s. The per-thread
    /// forward-progress measure of the contention study (DESIGN.md §12) —
    /// under a fair arbiter these stay balanced across threads even when
    /// SC failure counts are not.
    pub elems_completed: u64,
}

/// Machine-wide stall-bucket totals, summed over threads. Embedded in
/// [`SimError`](crate::SimError) diagnostics so an aborted run still
/// reports where its cycles went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallTotals {
    /// Total memory-stall cycles.
    pub mem: u64,
    /// Total functional-unit stall cycles.
    pub compute: u64,
    /// Total issue-contention stall cycles.
    pub issue: u64,
    /// Total barrier-wait cycles.
    pub barrier: u64,
    /// Total synchronization cycles.
    pub sync: u64,
}

impl StallTotals {
    /// Sums the stall buckets of `threads`.
    pub fn from_threads(threads: &[ThreadStats]) -> Self {
        let mut t = Self::default();
        for s in threads {
            t.mem += s.mem_stall_cycles;
            t.compute += s.compute_stall_cycles;
            t.issue += s.issue_stall_cycles;
            t.barrier += s.barrier_cycles;
            t.sync += s.sync_cycles;
        }
        t
    }
}

impl std::fmt::Display for StallTotals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mem {} / compute {} / issue {} / barrier {} / sync {}",
            self.mem, self.compute, self.issue, self.barrier, self.sync
        )
    }
}

/// Aggregated result of one simulation run. Its `glsc-wire` encoding is
/// what the job store saves and what a `JobDone` protocol reply carries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Total machine cycles until every thread halted.
    pub cycles: u64,
    /// Per-thread counters, indexed by global thread id.
    pub threads: Vec<ThreadStats>,
    /// Memory-system counters.
    pub mem: MemStats,
    /// LSU counters summed over cores.
    pub lsu: LsuStats,
    /// GSU counters summed over cores.
    pub gsu: GsuStats,
    /// Memory consistency model the run executed under (DESIGN.md §17).
    pub memory_order: glsc_mem::MemoryOrder,
}

impl RunReport {
    /// Total dynamic instructions over all threads.
    pub fn total_instructions(&self) -> u64 {
        self.threads.iter().map(|t| t.instructions).sum()
    }

    /// Total memory-stall cycles over all threads.
    pub fn total_mem_stalls(&self) -> u64 {
        self.threads.iter().map(|t| t.mem_stall_cycles).sum()
    }

    /// Fraction of thread-cycles attributed to synchronization, as in
    /// Figure 5(a).
    pub fn sync_fraction(&self) -> f64 {
        let active: u64 = self.threads.iter().map(|t| t.active_cycles).sum();
        if active == 0 {
            return 0.0;
        }
        let sync: u64 = self.threads.iter().map(|t| t.sync_cycles).sum();
        sync as f64 / active as f64
    }

    /// Demand L1 accesses (LSU + GSU line requests).
    pub fn l1_accesses(&self) -> u64 {
        self.mem.l1_accesses()
    }

    /// L1 accesses made by atomic operations: scalar ll/sc plus GLSC line
    /// requests (for Table 4's "L1 Accesses" analysis).
    pub fn atomic_l1_accesses(&self) -> u64 {
        self.lsu.lls + self.lsu.scs + self.gsu.atomic_line_requests
    }

    /// L1 accesses an uncombined implementation would have needed for the
    /// same atomic work (elements rather than lines for GLSC).
    pub fn atomic_l1_accesses_uncombined(&self) -> u64 {
        self.lsu.lls + self.lsu.scs + self.gsu.atomic_elems
    }

    /// GLSC element failure rate (Table 4, last columns).
    pub fn glsc_failure_rate(&self) -> f64 {
        self.gsu.element_failure_rate()
    }

    /// Jain's fairness index over per-thread store-conditional failures
    /// (retries): 1.0 when every thread retried equally often (or nobody
    /// retried), approaching `1/n` when one of `n` threads absorbs every
    /// failure. The headline number of the `contention_policies` figure.
    pub fn sc_retry_fairness(&self) -> f64 {
        let failures: Vec<u64> = self.mem.sc_threads.iter().map(|t| t.failures).collect();
        jain_fairness(&failures)
    }

    /// Highest consecutive-SC-failure run any thread suffered.
    pub fn max_sc_failure_streak(&self) -> u64 {
        self.mem
            .sc_threads
            .iter()
            .map(|t| t.max_streak)
            .max()
            .unwrap_or(0)
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over a per-thread sample:
/// 1.0 for a perfectly even split, `1/n` when a single thread holds
/// everything. An empty or all-zero sample is perfectly fair (1.0).
pub fn jain_fairness(xs: &[u64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = xs.iter().map(|&x| x as f64).sum();
    let sq: f64 = xs.iter().map(|&x| (x as f64) * (x as f64)).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregations() {
        let mut r = RunReport::default();
        r.threads.push(ThreadStats {
            instructions: 100,
            sync_cycles: 30,
            active_cycles: 100,
            mem_stall_cycles: 20,
            ..ThreadStats::default()
        });
        r.threads.push(ThreadStats {
            instructions: 50,
            sync_cycles: 10,
            active_cycles: 100,
            mem_stall_cycles: 5,
            ..ThreadStats::default()
        });
        assert_eq!(r.total_instructions(), 150);
        assert_eq!(r.total_mem_stalls(), 25);
        assert!((r.sync_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport::default();
        assert_eq!(r.sync_fraction(), 0.0);
        assert_eq!(r.total_instructions(), 0);
        assert_eq!(r.glsc_failure_rate(), 0.0);
    }

    #[test]
    fn stall_totals_sum_and_display() {
        let threads = [
            ThreadStats {
                mem_stall_cycles: 3,
                compute_stall_cycles: 1,
                issue_stall_cycles: 2,
                barrier_cycles: 4,
                sync_cycles: 5,
                ..ThreadStats::default()
            },
            ThreadStats {
                mem_stall_cycles: 7,
                ..ThreadStats::default()
            },
        ];
        let t = StallTotals::from_threads(&threads);
        assert_eq!(t.mem, 10);
        assert_eq!(t.compute, 1);
        assert_eq!(
            t.to_string(),
            "mem 10 / compute 1 / issue 2 / barrier 4 / sync 5"
        );
    }

    #[test]
    fn jain_fairness_edges() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0, 0, 0]), 1.0);
        assert_eq!(jain_fairness(&[5, 5, 5, 5]), 1.0);
        // One thread holds everything: 1/n.
        assert!((jain_fairness(&[12, 0, 0, 0]) - 0.25).abs() < 1e-12);
        // Monotone: a more even split is fairer.
        assert!(jain_fairness(&[6, 6, 0, 0]) > jain_fairness(&[12, 0, 0, 0]));
    }

    #[test]
    fn sc_fairness_from_report() {
        let mut r = RunReport::default();
        r.mem.sc_threads = vec![glsc_mem::ThreadScStats::default(); 2];
        r.mem.sc_threads[0].failures = 8;
        r.mem.sc_threads[0].max_streak = 3;
        r.mem.sc_threads[1].failures = 8;
        r.mem.sc_threads[1].max_streak = 7;
        assert_eq!(r.sc_retry_fairness(), 1.0);
        assert_eq!(r.max_sc_failure_streak(), 7);
        assert_eq!(RunReport::default().max_sc_failure_streak(), 0);
    }

    #[test]
    fn atomic_access_accounting() {
        let mut r = RunReport::default();
        r.lsu.lls = 10;
        r.lsu.scs = 10;
        r.gsu.atomic_line_requests = 5;
        r.gsu.atomic_elems = 20;
        assert_eq!(r.atomic_l1_accesses(), 25);
        assert_eq!(r.atomic_l1_accesses_uncombined(), 40);
    }
}

glsc_wire::wire_struct!(ThreadStats {
    instructions,
    sync_instructions,
    active_cycles,
    sync_cycles,
    mem_stall_cycles,
    compute_stall_cycles,
    issue_stall_cycles,
    barrier_cycles,
    elems_completed,
});

glsc_wire::wire_struct!(RunReport {
    cycles,
    threads,
    mem,
    lsu,
    gsu,
    memory_order,
});
