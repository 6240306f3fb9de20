//! The coherence + timing engine tying L1s, the banked L2 directory, DRAM
//! and the prefetcher together.
//!
//! One call to [`MemorySystem::access`] models one line-granular request
//! accepted at an L1 port: it probes the L1, walks the MSI directory
//! protocol on a miss or upgrade, mutates all coherence and reservation
//! state, and returns the cycle at which the request's data is available.
//!
//! Every L1↔L2 transaction is decomposed into typed messages over the
//! on-die interconnect ([`Noc`]): the request travels core→bank, the
//! directory's invalidations/downgrade probes travel bank→sharer with an
//! acknowledgement back, dirty evictions send a writeback, and the data
//! reply travels bank→core. Under the default
//! [`Topology::Ideal`](crate::Topology) fabric every traversal is free and
//! the timing is bit-identical to the pre-NoC simulator; ring and crossbar
//! fabrics add per-hop latency and link queueing.

use crate::arbitration::{Arbiter, ArbitrationPolicy};
use crate::backing::Backing;
use crate::chaos::{ChaosStats, FaultPlan};
use crate::config::MemConfig;
use crate::errors::InvariantViolation;
use crate::l1::{L1Cache, L1State, LinePayload};
use crate::l2::{L2Bank, L2Payload};
use crate::noc::{MsgClass, Noc};
use crate::oracle::{AtomicityOracle, AtomicityViolation};
use crate::prefetch::StridePrefetcher;
use crate::stats::{MemStats, ThreadScStats};
use crate::{line_of, L1_HIT_LATENCY, MAX_CORES, MAX_THREADS_PER_CORE};
use glsc_rng::Rng;

/// Minimum L2 access latency in cycles, interconnect included (Table 1).
const L2_LATENCY: u64 = 12;

/// Extra cycles when a line is forwarded from another core's modified L1
/// copy (cache-to-cache transfer).
const DIRTY_FORWARD_EXTRA: u64 = 12;

/// The kind of request presented at an L1 port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemOp {
    /// Plain load.
    Load,
    /// Plain store (commits data; clears the line's GLSC reservation).
    Store,
    /// Load-linked: load plus reservation acquisition for the issuing SMT
    /// thread (used by scalar `ll` and by `vgatherlink`, §3.3).
    LoadLinked,
    /// Store-conditional: store iff the issuing thread still holds the
    /// line's reservation (used by scalar `sc` and by `vscattercond`).
    StoreCond,
}

/// Outcome of an accepted request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the request completes (data available / store
    /// globally performed).
    pub done: u64,
    /// Whether the request hit in the L1.
    pub l1_hit: bool,
    /// For [`MemOp::StoreCond`]: whether the reservation check passed and
    /// the store was performed. `true` for all other ops.
    pub sc_ok: bool,
}

/// The full simulated memory system shared by all cores.
#[derive(Clone, Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    backing: Backing,
    l1s: Vec<L1Cache>,
    banks: Vec<L2Bank>,
    prefetchers: Vec<StridePrefetcher>,
    noc: Noc,
    stats: MemStats,
    /// SMT threads per core — fixes the `core * tpc + tid` global-thread
    /// indexing of the per-thread SC telemetry and the arbiter.
    threads_per_core: usize,
    /// Runtime state of the configured arbitration policy (empty and
    /// untouched under [`ArbitrationPolicy::Free`]). Plain owned data, so
    /// clones copy it like everything else.
    arbiter: Arbiter,
    /// Installed fault-injection plan (DESIGN.md §9); `None` on the
    /// fault-free hot path.
    chaos: Option<Box<FaultPlan>>,
    /// Extra DRAM cycles the next L2-miss fill must absorb (scheduled by
    /// the jitter injector; always 0 without a fault plan).
    jitter_next_fill: u64,
    /// Installed vector-clock atomicity oracle (DESIGN.md §17); `None` on
    /// the unchecked hot path. Purely observational: never affects timing.
    oracle: Option<Box<AtomicityOracle>>,
}

impl MemorySystem {
    /// Builds a memory system for `num_cores` cores with `threads_per_core`
    /// SMT threads each (the prefetcher tracks one stream per thread).
    /// `Machine::try_new` checks the same bounds as typed errors first.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`MemConfig::check`]), `num_cores` is outside 1..=[`MAX_CORES`] or
    /// `threads_per_core` is outside 1..=[`MAX_THREADS_PER_CORE`].
    pub fn new(cfg: MemConfig, num_cores: usize, threads_per_core: usize) -> Self {
        cfg.check().unwrap_or_else(|e| panic!("{e}"));
        assert!(
            (1..=MAX_CORES).contains(&num_cores),
            "1..={MAX_CORES} cores supported (got {num_cores})"
        );
        assert!(
            (1..=MAX_THREADS_PER_CORE).contains(&threads_per_core),
            "need at least one thread per core (1..={MAX_THREADS_PER_CORE}, got {threads_per_core})"
        );
        let l1s: Vec<L1Cache> = (0..num_cores)
            .map(|_| match cfg.glsc_buffer_entries {
                None => L1Cache::new(cfg.l1_sets(), cfg.l1_assoc),
                Some(k) => L1Cache::with_reservation_buffer(cfg.l1_sets(), cfg.l1_assoc, k),
            })
            .collect();
        let banks = (0..cfg.l2_banks)
            .map(|_| L2Bank::new(cfg.l2_sets_per_bank(), cfg.l2_assoc))
            .collect();
        let prefetchers = (0..num_cores)
            .map(|_| StridePrefetcher::new(threads_per_core))
            .collect();
        let noc = Noc::new(cfg.noc.clone(), num_cores, cfg.l2_banks);
        let mut stats = MemStats::default();
        stats.noc.link_msgs = vec![0; noc.num_links()];
        stats.sc_threads = vec![ThreadScStats::default(); num_cores * threads_per_core];
        Self {
            cfg,
            backing: Backing::new(),
            l1s,
            banks,
            prefetchers,
            noc,
            stats,
            threads_per_core,
            arbiter: Arbiter::default(),
            chaos: None,
            jitter_next_fill: 0,
            oracle: None,
        }
    }

    /// Installs a seeded fault-injection plan; subsequent accesses are
    /// subject to its schedule. Replaces any existing plan.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.chaos = Some(Box::new(plan));
    }

    /// Removes and returns the installed fault plan, restoring the
    /// zero-overhead fault-free path.
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.jitter_next_fill = 0;
        self.noc.clear_jitter();
        self.chaos.take().map(|b| *b)
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.chaos.as_deref()
    }

    /// Injection counters of the installed fault plan, if any.
    pub fn chaos_stats(&self) -> Option<&ChaosStats> {
        self.chaos.as_ref().map(|p| p.stats())
    }

    /// Installs a vector-clock atomicity oracle; subsequent link/store/
    /// store-conditional commits are checked against it. Replaces any
    /// existing oracle. Observational only — timing is unchanged.
    pub fn install_oracle(&mut self, oracle: AtomicityOracle) {
        self.oracle = Some(Box::new(oracle));
    }

    /// The installed atomicity oracle, if any.
    pub fn oracle(&self) -> Option<&AtomicityOracle> {
        self.oracle.as_deref()
    }

    /// Reports a committed plain store (scalar store, vector-store lane or
    /// scatter lane) to the installed oracle, if any.
    #[inline]
    pub fn oracle_note_store(&mut self, core: usize, tid: u8, addr: u64) {
        if self.oracle.is_some() {
            self.oracle_store_cold(core, tid, addr);
        }
    }

    #[cold]
    fn oracle_store_cold(&mut self, core: usize, tid: u8, addr: u64) {
        let gid = self.gid(core, tid);
        if let Some(o) = self.oracle.as_deref_mut() {
            o.note_store(gid, addr);
        }
    }

    /// Reports a link acquisition (scalar `ll` or a `vgatherlink` lane) to
    /// the installed oracle, if any.
    #[inline]
    pub fn oracle_note_link(&mut self, core: usize, tid: u8, addr: u64) {
        if self.oracle.is_some() {
            self.oracle_link_cold(core, tid, addr);
        }
    }

    #[cold]
    fn oracle_link_cold(&mut self, core: usize, tid: u8, addr: u64) {
        let gid = self.gid(core, tid);
        if let Some(o) = self.oracle.as_deref_mut() {
            o.note_link(gid, addr);
        }
    }

    /// Reports a **successful** store-conditional commit (scalar `sc` or a
    /// `vscattercond` lane) to the installed oracle, if any.
    #[inline]
    pub fn oracle_note_sc_success(&mut self, core: usize, tid: u8, addr: u64) {
        if self.oracle.is_some() {
            self.oracle_sc_cold(core, tid, addr);
        }
    }

    #[cold]
    fn oracle_sc_cold(&mut self, core: usize, tid: u8, addr: u64) {
        let gid = self.gid(core, tid);
        if let Some(o) = self.oracle.as_deref_mut() {
            o.note_sc_success(gid, addr);
        }
    }

    /// The first atomicity violation detected by the installed oracle, if
    /// any. The run loop polls this to surface a typed error.
    pub fn oracle_violation(&self) -> Option<&AtomicityViolation> {
        self.oracle.as_deref().and_then(|o| o.violations().first())
    }

    /// The configuration in effect.
    pub fn cfg(&self) -> &MemConfig {
        &self.cfg
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.l1s.len()
    }

    /// Accumulated event counters.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Resets the event counters (e.g. after warmup). Arbitration policy
    /// state is *not* statistics and survives: resetting counters must
    /// never change timing.
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.stats.noc.link_msgs = vec![0; self.noc.num_links()];
        self.stats.sc_threads =
            vec![ThreadScStats::default(); self.l1s.len() * self.threads_per_core];
    }

    /// Runtime state of the configured arbitration policy (inspection for
    /// tests and diagnostics).
    pub fn arbiter(&self) -> &Arbiter {
        &self.arbiter
    }

    /// The on-die interconnect (inspection for tests and statistics).
    pub fn noc(&self) -> &Noc {
        &self.noc
    }

    /// Read access to the functional memory image.
    pub fn backing(&self) -> &Backing {
        &self.backing
    }

    /// Write access to the functional memory image.
    pub fn backing_mut(&mut self) -> &mut Backing {
        &mut self.backing
    }

    /// The L1 of `core` (inspection for tests and statistics).
    pub fn l1(&self, core: usize) -> &L1Cache {
        &self.l1s[core]
    }

    /// Whether SMT thread `tid` of `core` holds the reservation on the line
    /// containing `addr`.
    pub fn holds_reservation(&self, core: usize, tid: u8, addr: u64) -> bool {
        self.l1s[core].holds_reservation(line_of(addr), tid)
    }

    /// Presents one request at `core`'s L1 port at cycle `now`.
    ///
    /// `tid` is the core-local SMT thread id of the requester, used for
    /// reservations and prefetch stream tracking. Timing is line-granular:
    /// callers split multi-line vector operations into one access per
    /// distinct line (the GSU does exactly this, combining same-line
    /// elements, §4.1).
    pub fn access(&mut self, core: usize, tid: u8, op: MemOp, addr: u64, now: u64) -> AccessResult {
        let line = line_of(addr);
        if self.chaos.is_some() {
            self.inject_faults(now);
        }
        let result = self.access_line(core, tid, op, line, now, true);
        if self.cfg.prefetch && !matches!(op, MemOp::StoreCond) {
            for pf_line in self.prefetchers[core].observe(tid as usize, line) {
                self.prefetch_line(core, pf_line, now);
            }
        }
        result
    }

    /// Runs the installed fault plan for one accepted access: every
    /// `period`-th access is an injection point at which each fault kind is
    /// rolled independently. Off the hot path — callers gate on
    /// `self.chaos.is_some()`.
    ///
    /// All faults are destructive-only (clear, evict, delay); see the
    /// `chaos` module docs for why injecting spurious reservation *gain*
    /// is forbidden.
    #[cold]
    fn inject_faults(&mut self, now: u64) {
        let Some(mut plan) = self.chaos.take() else {
            return;
        };
        plan.accesses += 1;
        if plan.accesses % plan.cfg.period == 0 {
            self.injection_point(&mut plan, now);
        }
        self.chaos = Some(plan);
    }

    /// One injection point of `plan` (taken out of `self` so the injectors
    /// can borrow the caches mutably).
    fn injection_point(&mut self, plan: &mut FaultPlan, now: u64) {
        plan.stats.injection_points += 1;
        let cores = self.l1s.len();

        // (a) §3.2 conflicting write: kill every link on one reserved line.
        // Victims are picked by position, counted then walked to, so an
        // injection point allocates nothing.
        if plan.rng.random_bool(plan.cfg.clear_line_prob) {
            let c = plan.rng.random_range(0..cores);
            let reserved = self.l1s[c].reservations().count();
            if reserved > 0 {
                let k = plan.rng.random_range(0..reserved);
                let (line, _) = self.l1s[c].reservations().nth(k).expect("k < count");
                if self.l1s[c].clear_reservation(line) {
                    plan.stats.reservations_cleared += 1;
                }
            }
        }

        // (a') §3.2 context switch: flush one core's reservation state.
        if plan.rng.random_bool(plan.cfg.flush_core_prob) {
            let c = plan.rng.random_range(0..cores);
            if self.l1s[c].clear_all_reservations() > 0 {
                plan.stats.core_flushes += 1;
            }
        }

        // (b) §3.2 capacity/prefetch displacement: evict a random resident
        // line with full directory bookkeeping (the same path a natural
        // eviction takes, so coherence invariants keep holding).
        if plan.rng.random_bool(plan.cfg.evict_line_prob) {
            let c = plan.rng.random_range(0..cores);
            let resident = self.l1s[c].len();
            if resident > 0 {
                let k = plan.rng.random_range(0..resident);
                let (line, _) = self.l1s[c].iter().nth(k).expect("k < len");
                if let Some(vpay) = self.l1s[c].invalidate(line) {
                    self.evict_from_l1(c, line, vpay, now);
                    plan.stats.lines_evicted += 1;
                }
            }
        }

        // (c) DRAM timing jitter: the next L2-miss fill is late.
        if plan.cfg.dram_jitter_max > 0 && plan.rng.random_bool(plan.cfg.dram_jitter_prob) {
            let extra = plan.rng.random_range(1..=plan.cfg.dram_jitter_max);
            self.jitter_next_fill = self.jitter_next_fill.saturating_add(extra);
            plan.stats.jitter_events += 1;
            plan.stats.jitter_cycles += extra;
        }

        // (d) §3.3 buffer overflow pressure: force the oldest buffered
        // reservation out (no-op in per-line-tag mode).
        if plan.rng.random_bool(plan.cfg.buffer_pressure_prob) {
            let c = plan.rng.random_range(0..cores);
            if self.l1s[c].force_buffer_eviction() {
                plan.stats.forced_buffer_evictions += 1;
                self.stats.reservation_buffer_evictions += 1;
            }
        }

        // (e) fabric arbitration jitter: the next interconnect message
        // departs late (delay-only; never reorders or drops).
        if plan.cfg.link_jitter_max > 0 && plan.rng.random_bool(plan.cfg.link_jitter_prob) {
            let extra = plan.rng.random_range(1..=plan.cfg.link_jitter_max);
            self.noc.add_jitter(extra);
            plan.stats.link_jitter_events += 1;
            plan.stats.link_jitter_cycles += extra;
        }
    }

    fn prefetch_line(&mut self, core: usize, line: u64, now: u64) {
        if self.l1s[core].peek(line).is_some() {
            self.stats.prefetches_redundant += 1;
            return;
        }
        self.stats.prefetches_issued += 1;
        let _ = self.fill(core, line, now, false, false, MsgClass::PrefetchFill);
    }

    fn access_line(
        &mut self,
        core: usize,
        tid: u8,
        op: MemOp,
        line: u64,
        now: u64,
        demand: bool,
    ) -> AccessResult {
        debug_assert!(demand, "demand-only entry point");
        match op {
            MemOp::Load | MemOp::LoadLinked => {
                if let Some(p) = self.l1s[core].lookup_mut(line) {
                    let done = (now + L1_HIT_LATENCY).max(p.ready_at);
                    if p.ready_at > now + L1_HIT_LATENCY {
                        self.stats.hits_under_miss += 1;
                    }
                    self.stats.l1_hits += 1;
                    if op == MemOp::LoadLinked
                        && self.may_reserve(core, tid, line, now)
                        && self.l1s[core].set_reservation(line, tid)
                    {
                        self.stats.reservation_buffer_evictions += 1;
                    }
                    AccessResult {
                        done,
                        l1_hit: true,
                        sc_ok: true,
                    }
                } else {
                    self.stats.l1_misses += 1;
                    let class = if op == MemOp::LoadLinked {
                        MsgClass::GlscProbe
                    } else {
                        MsgClass::GetS
                    };
                    let done = self.fill(core, line, now, false, true, class);
                    if op == MemOp::LoadLinked
                        && self.may_reserve(core, tid, line, now)
                        && self.l1s[core].set_reservation(line, tid)
                    {
                        self.stats.reservation_buffer_evictions += 1;
                    }
                    AccessResult {
                        done,
                        l1_hit: false,
                        sc_ok: true,
                    }
                }
            }
            MemOp::Store => {
                if self.l1s[core].peek(line).is_some() {
                    self.stats.l1_hits += 1;
                    if self.l1s[core].clear_reservation(line) {
                        self.stats.reservations_cleared_by_stores += 1;
                    }
                    let p = self.l1s[core].lookup_mut(line).expect("resident");
                    let state = p.state;
                    let ready = p.ready_at;
                    let done = if state == L1State::Modified {
                        (now + L1_HIT_LATENCY).max(ready)
                    } else {
                        let lat = self.upgrade(core, line, now, MsgClass::GetX);
                        self.l1s[core]
                            .peek_mut(line)
                            .expect("line resident during upgrade")
                            .state = L1State::Modified;
                        lat.max(ready)
                    };
                    AccessResult {
                        done,
                        l1_hit: true,
                        sc_ok: true,
                    }
                } else {
                    self.stats.l1_misses += 1;
                    let done = self.fill(core, line, now, true, true, MsgClass::GetX);
                    AccessResult {
                        done,
                        l1_hit: false,
                        sc_ok: true,
                    }
                }
            }
            MemOp::StoreCond => {
                // The reservation lives in the L1 entry, so a non-resident
                // line cannot hold one: fail fast (conservative ll/sc
                // semantics, §3).
                let holds = self.l1s[core].peek(line).is_some()
                    && self.l1s[core].holds_reservation(line, tid);
                if !holds {
                    self.stats.l1_hits += 1;
                    self.stats.sc_failures += 1;
                    self.note_sc_failure(core, tid, line, now, true);
                    return AccessResult {
                        done: now + L1_HIT_LATENCY,
                        l1_hit: true,
                        sc_ok: false,
                    };
                }
                // An otherwise-committable SC can still be refused by the
                // arbitration policy (AgedPriority: an older failure
                // streak is active on the line). A refusal is a NACK at
                // the L1 port — it costs one hit latency and leaves every
                // reservation, including the requester's, intact.
                if self.sc_refused(core, tid, line, now) {
                    self.stats.l1_hits += 1;
                    self.stats.sc_failures += 1;
                    self.note_sc_failure(core, tid, line, now, false);
                    return AccessResult {
                        done: now + L1_HIT_LATENCY,
                        l1_hit: true,
                        sc_ok: false,
                    };
                }
                // The conditional store commits: every link on the line dies
                // (including other threads' — it is an intervening write
                // from their perspective).
                self.l1s[core].clear_reservation(line);
                let p = self.l1s[core].lookup_mut(line).expect("resident");
                let state = p.state;
                let ready = p.ready_at;
                self.stats.l1_hits += 1;
                self.stats.sc_successes += 1;
                self.note_sc_success(core, tid, line);
                let done = if state == L1State::Modified {
                    (now + L1_HIT_LATENCY).max(ready)
                } else {
                    let lat = self.upgrade(core, line, now, MsgClass::GlscProbe);
                    self.l1s[core]
                        .peek_mut(line)
                        .expect("line resident during upgrade")
                        .state = L1State::Modified;
                    lat.max(ready)
                };
                AccessResult {
                    done,
                    l1_hit: true,
                    sc_ok: true,
                }
            }
        }
    }

    /// Global hardware-thread id of `(core, tid)`, indexing the per-thread
    /// SC telemetry and the arbiter's age book.
    fn gid(&self, core: usize, tid: u8) -> usize {
        core * self.threads_per_core + tid as usize
    }

    /// Whether the active policy lets `(core, tid)` acquire a reservation
    /// on `line` at `now`. Only NackHoldoff ever says no (a load-linked
    /// during the loser's holdoff window returns data but links nothing).
    fn may_reserve(&mut self, core: usize, tid: u8, line: u64, now: u64) -> bool {
        match self.cfg.arbitration {
            ArbitrationPolicy::NackHoldoff { .. } => !self.arbiter.in_holdoff(core, tid, line, now),
            ArbitrationPolicy::Free | ArbitrationPolicy::AgedPriority => true,
        }
    }

    /// Whether the active policy refuses an otherwise-committable SC by
    /// `(core, tid)` on `line` at `now`. Only AgedPriority ever refuses
    /// (a strictly older failure streak is active on the line).
    fn sc_refused(&self, core: usize, tid: u8, line: u64, now: u64) -> bool {
        match self.cfg.arbitration {
            ArbitrationPolicy::AgedPriority => {
                self.arbiter.must_refuse(self.gid(core, tid), line, now)
            }
            ArbitrationPolicy::Free | ArbitrationPolicy::NackHoldoff { .. } => false,
        }
    }

    /// Telemetry + policy bookkeeping for one failed SC. Telemetry updates
    /// under every policy (it never feeds back into timing). Only a
    /// `lost_race` failure — the reservation was genuinely gone, meaning
    /// some other thread committed — arms a NackHoldoff window or opens
    /// an AgedPriority streak. An arbitration *refusal* must not: a
    /// refusal-opened streak would hand the refused thread priority it
    /// has not earned, and with several locks per cache line a two-phase
    /// lock protocol then livelocks — each contender's commit on its
    /// first lock retires the very streak that would have let it take
    /// the second, so the two sides refuse each other forever.
    fn note_sc_failure(&mut self, core: usize, tid: u8, line: u64, now: u64, lost_race: bool) {
        let gid = self.gid(core, tid);
        if let Some(t) = self.stats.sc_threads.get_mut(gid) {
            t.record_failure();
        }
        if !lost_race {
            return;
        }
        match self.cfg.arbitration {
            ArbitrationPolicy::Free => {}
            ArbitrationPolicy::NackHoldoff { window } => {
                self.arbiter.arm_holdoff(core, tid, line, now, window);
            }
            ArbitrationPolicy::AgedPriority => self.arbiter.note_failure(gid, line, now),
        }
    }

    /// Telemetry + policy bookkeeping for one committed SC: ends the
    /// thread's failure run and (AgedPriority) retires its streak.
    fn note_sc_success(&mut self, core: usize, tid: u8, line: u64) {
        let gid = self.gid(core, tid);
        if let Some(t) = self.stats.sc_threads.get_mut(gid) {
            t.record_success();
        }
        if self.cfg.arbitration == ArbitrationPolicy::AgedPriority {
            self.arbiter.note_success(gid, line);
        }
    }

    /// Directory upgrade transaction: Shared -> Modified for `core`.
    /// Invalidates every other sharer (dropping their reservations).
    ///
    /// On the fabric: the `class` request (GetX, or a GLSC probe for
    /// `sc`/`vscattercond`) travels core→bank, the directory sends an
    /// invalidation to every other sharer and collects their acks, and the
    /// upgrade grant travels bank→core. The upgrade completes when the
    /// grant *and* every ack have arrived.
    fn upgrade(&mut self, core: usize, line: u64, now: u64, class: MsgClass) -> u64 {
        self.stats.upgrades += 1;
        let bank = self.cfg.bank_of(line);
        let src = self.noc.core_node(core);
        let dst = self.noc.bank_node(bank);
        let arrival = self
            .noc
            .send(src, dst, class, now + L1_HIT_LATENCY, &mut self.stats);
        let start = self.banks[bank].reserve(arrival);
        let resp = start + L2_LATENCY;
        let sharers = {
            let p = self.banks[bank]
                .tags
                .peek_mut(line)
                .expect("inclusive L2 must hold upgraded line");
            let s = p.sharers;
            p.sharers = 0;
            p.owner = Some(core as u8);
            p.dirty = true;
            s
        };
        let mut acks_done = resp;
        for other in 0..self.l1s.len() {
            if other != core && sharers & (1 << other) != 0 {
                if let Some(victim) = self.l1s[other].invalidate(line) {
                    self.stats.invalidations += 1;
                    if victim.reservation != 0 {
                        self.stats.reservations_cleared_by_stores += 1;
                    }
                    acks_done = acks_done.max(self.inv_round_trip(bank, other, resp));
                }
            }
        }
        let grant = self
            .noc
            .send(dst, src, MsgClass::DataReply, resp, &mut self.stats);
        grant.max(acks_done)
    }

    /// Invalidation round trip: the directory's Inv message bank→core and
    /// the core's ack back, departing at `at`; returns the ack's arrival
    /// at the directory. Under the ideal fabric this is instantaneous, so
    /// it never moves any pre-NoC completion time.
    fn inv_round_trip(&mut self, bank: usize, core: usize, at: u64) -> u64 {
        let bnode = self.noc.bank_node(bank);
        let cnode = self.noc.core_node(core);
        let inv_at = self
            .noc
            .send(bnode, cnode, MsgClass::Inv, at, &mut self.stats);
        let ack_at = self
            .noc
            .send(cnode, bnode, MsgClass::InvAck, inv_at, &mut self.stats);
        self.stats.inv_acks += 1;
        ack_at
    }

    /// Miss path: walk the directory, fetch the line (L2 or DRAM), install
    /// it in `core`'s L1 and return the fill-complete cycle.
    ///
    /// On the fabric: the `class` request travels core→bank; directory
    /// probes (downgrades, invalidations) fan out bank→sharer with acks
    /// back; the data reply travels bank→core once the data is ready at
    /// the bank. The fill completes when the reply *and* every ack have
    /// arrived.
    fn fill(
        &mut self,
        core: usize,
        line: u64,
        now: u64,
        for_store: bool,
        demand: bool,
        class: MsgClass,
    ) -> u64 {
        let bank = self.cfg.bank_of(line);
        let src = self.noc.core_node(core);
        let dst = self.noc.bank_node(bank);
        let arrival = self
            .noc
            .send(src, dst, class, now + L1_HIT_LATENCY, &mut self.stats);
        let start = self.banks[bank].reserve(arrival);
        // Cycle the bank issues its probes and (at the earliest) the reply.
        let resp = start + L2_LATENCY;
        // Cores whose copy the fill invalidates, bit per core.
        let mut invalidate: u32 = 0;
        let mut downgrade_owner: Option<usize> = None;

        let data_ready = if let Some(p) = self.banks[bank].tags.lookup_mut(line) {
            if demand {
                self.stats.l2_hits += 1;
            }
            let mut lat = resp.max(p.ready_at);
            match (p.owner, for_store) {
                (Some(owner), _) if owner as usize != core => {
                    // Remote modified copy: cache-to-cache forward.
                    lat += DIRTY_FORWARD_EXTRA;
                    p.dirty = true;
                    if for_store {
                        invalidate = 1 << owner;
                        p.owner = Some(core as u8);
                        p.sharers = 0;
                    } else {
                        downgrade_owner = Some(owner as usize);
                        p.owner = None;
                        p.sharers = (1 << owner) | (1 << core);
                    }
                }
                (_, true) => {
                    // Store miss with only shared copies: invalidate them.
                    invalidate = p.sharers & !(1 << core);
                    p.sharers = 0;
                    p.owner = Some(core as u8);
                    p.dirty = true;
                }
                (_, false) => {
                    p.sharers |= 1 << core;
                }
            }
            lat
        } else {
            if demand {
                self.stats.l2_misses += 1;
            }
            // `jitter_next_fill` is 0 whenever no fault plan is installed,
            // keeping fault-free timing bit-identical.
            let fill_done = start
                + L2_LATENCY
                + self.cfg.dram_latency
                + std::mem::take(&mut self.jitter_next_fill);
            let payload = L2Payload {
                sharers: if for_store { 0 } else { 1 << core },
                owner: if for_store { Some(core as u8) } else { None },
                dirty: for_store,
                ready_at: fill_done,
            };
            if let Some((vline, vpay)) = self.banks[bank].tags.insert(line, payload) {
                self.back_invalidate(vline, &vpay, fill_done);
            }
            fill_done
        };

        let mut acks_done = resp;
        if let Some(owner) = downgrade_owner {
            self.stats.dirty_forwards += 1;
            if let Some(entry) = self.l1s[owner].peek_mut(line) {
                entry.state = L1State::Shared;
            }
            acks_done = acks_done.max(self.inv_round_trip(bank, owner, resp));
        }
        while invalidate != 0 {
            let victim_core = invalidate.trailing_zeros() as usize;
            invalidate &= invalidate - 1;
            if let Some(victim) = self.l1s[victim_core].invalidate(line) {
                self.stats.invalidations += 1;
                if victim.state == L1State::Modified {
                    self.stats.dirty_forwards += 1;
                }
                if victim.reservation != 0 {
                    self.stats.reservations_cleared_by_stores += 1;
                }
                acks_done = acks_done.max(self.inv_round_trip(bank, victim_core, resp));
            }
        }

        // Data reply to the requester once the bank has the data.
        let reply = self
            .noc
            .send(dst, src, MsgClass::DataReply, data_ready, &mut self.stats);
        let done = reply.max(acks_done);

        // Install in the requesting L1, handling the victim's directory
        // bookkeeping.
        let payload = LinePayload {
            state: if for_store {
                L1State::Modified
            } else {
                L1State::Shared
            },
            ready_at: done,
            reservation: 0,
        };
        if let Some((vline, vpay)) = self.l1s[core].install(line, payload) {
            self.evict_from_l1(core, vline, vpay, done);
        }
        done
    }

    /// Directory bookkeeping when `core`'s L1 evicts `vline` at cycle
    /// `at`. Dirty victims send a writeback message to the home bank.
    fn evict_from_l1(&mut self, core: usize, vline: u64, vpay: LinePayload, at: u64) {
        let bank = self.cfg.bank_of(vline);
        if let Some(p) = self.banks[bank].tags.peek_mut(vline) {
            match vpay.state {
                L1State::Modified => {
                    if p.owner == Some(core as u8) {
                        p.owner = None;
                    }
                    p.dirty = true; // writeback data (absorbed by the L2)
                }
                L1State::Shared => {
                    p.sharers &= !(1 << core);
                }
            }
        }
        if vpay.state == L1State::Modified {
            self.stats.writebacks += 1;
            let src = self.noc.core_node(core);
            let dst = self.noc.bank_node(bank);
            self.noc
                .send(src, dst, MsgClass::Writeback, at, &mut self.stats);
        }
    }

    /// Inclusion: when the L2 evicts a line at cycle `at`, every private
    /// copy must go (invalidation + ack on the fabric; a Modified copy
    /// additionally writes its data back).
    fn back_invalidate(&mut self, vline: u64, vpay: &L2Payload, at: u64) {
        let bank = self.cfg.bank_of(vline);
        for c in 0..self.l1s.len() {
            let holds = vpay.sharers & (1 << c) != 0 || vpay.owner == Some(c as u8);
            if !holds {
                continue;
            }
            if let Some(victim) = self.l1s[c].invalidate(vline) {
                self.stats.back_invalidations += 1;
                let inv_done = self.inv_round_trip(bank, c, at);
                if victim.state == L1State::Modified {
                    self.stats.writebacks += 1;
                    let cnode = self.noc.core_node(c);
                    let bnode = self.noc.bank_node(bank);
                    self.noc
                        .send(cnode, bnode, MsgClass::Writeback, inv_done, &mut self.stats);
                }
            }
        }
    }

    /// Total reservations dropped by full GLSC buffers across all L1s
    /// (always zero in the default per-line-tags mode).
    pub fn reservation_buffer_evictions(&self) -> u64 {
        self.l1s
            .iter()
            .map(L1Cache::reservation_buffer_evictions)
            .sum()
    }

    /// Verifies the coherence invariants, returning the first violation as
    /// a typed value: inclusion, directory/sharer agreement, and
    /// single-writer.
    ///
    /// # Errors
    ///
    /// The first [`InvariantViolation`] found, naming the line, the
    /// core(s) involved and the directory state observed.
    pub fn try_check_invariants(&self) -> Result<(), InvariantViolation> {
        for (c, l1) in self.l1s.iter().enumerate() {
            for (line, p) in l1.iter() {
                let bank = self.cfg.bank_of(line);
                let Some(dir) = self.banks[bank].tags.peek(line) else {
                    return Err(InvariantViolation::Inclusion { core: c, line });
                };
                match p.state {
                    L1State::Modified => {
                        if dir.owner != Some(c as u8) {
                            return Err(InvariantViolation::OwnerMismatch {
                                core: c,
                                line,
                                directory_owner: dir.owner,
                            });
                        }
                    }
                    L1State::Shared => {
                        if dir.sharers & (1 << c) == 0 {
                            return Err(InvariantViolation::MissingSharer {
                                core: c,
                                line,
                                sharers: dir.sharers,
                            });
                        }
                    }
                }
            }
        }
        for bank in &self.banks {
            for (line, dir) in bank.tags.iter() {
                if let Some(owner) = dir.owner {
                    if dir.sharers != 0 {
                        return Err(InvariantViolation::OwnedWithSharers {
                            owner,
                            line,
                            sharers: dir.sharers,
                        });
                    }
                    let l1p = self.l1s[owner as usize].peek(line);
                    if !l1p.is_some_and(|p| p.state == L1State::Modified) {
                        return Err(InvariantViolation::OwnerNotModified { owner, line });
                    }
                }
            }
        }
        Ok(())
    }

    /// Verifies the coherence invariants; used by tests.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant. Use
    /// [`MemorySystem::try_check_invariants`] for a non-panicking, typed
    /// alternative.
    pub fn check_invariants(&self) {
        if let Err(e) = self.try_check_invariants() {
            panic!("{e}");
        }
    }

    /// Snapshot of every live reservation across all L1s as
    /// `(core, line, thread mask)` tuples, for livelock diagnostic dumps.
    pub fn reservation_state(&self) -> Vec<(usize, u64, u8)> {
        let mut out = Vec::new();
        for (c, l1) in self.l1s.iter().enumerate() {
            for (line, mask) in l1.reservations() {
                out.push((c, line, mask));
            }
        }
        out
    }
}

glsc_wire::wire_struct!(MemorySystem {
    cfg,
    backing,
    l1s,
    banks,
    prefetchers,
    noc,
    stats,
    threads_per_core,
    arbiter,
    chaos,
    jitter_next_fill,
    oracle,
});
