//! The gather/scatter unit with GLSC support.
//!
//! Reproduces the organization of Fig. 1/Fig. 4 and the timing rules of
//! §4.1 of the paper:
//!
//! * one instruction-buffer entry ("slot") per SMT thread;
//! * an instruction waits until the issuing thread's LSU requests have
//!   drained (memory-ordering conflict check of §2.2);
//! * the control logic generates **one element address per cycle** overall;
//! * accesses falling on the same cache line are **combined** into a single
//!   L1 request (Fig. 4 sends one request for elements A and C on line
//!   100). Address generation and cache accesses are pipelined (§4.1) for
//!   gathers, gather-links and plain scatters; `vscattercond` requests are
//!   held until the instruction's address generation completes so that the
//!   combined request's reservation check and data movement stay atomic at
//!   the port (a gather-link may read lanes after its line request was
//!   accepted: a later `vscattercond` success implies the reservation was
//!   never invalidated, i.e. no intervening write, so the late read equals
//!   the accept-time value);
//! * the unit assembles the destination vector and the **output mask** as
//!   replies return;
//! * minimum instruction latency is `overhead + SIMD-width` cycles.
//!
//! For `vscattercond`, element aliasing (two active lanes targeting the
//! same address) is detected and exactly one lane — the lowest — succeeds
//! (§3.1 allows either instruction to resolve aliases; this implementation
//! resolves them in the scatter, so aliased `vgatherlink` lanes all load).

use crate::config::GlscConfig;
use crate::lanes::{bits, LaneList, LaneValues};
use glsc_mem::{line_of, MemOp, MemorySystem};

/// Which GSU instruction a slot executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GsuKind {
    /// `vgather` — plain indexed load into vector register `vd`.
    Gather {
        /// Destination vector register index.
        vd: u8,
    },
    /// `vscatter` — plain indexed store.
    Scatter,
    /// `vgatherlink` — indexed load-linked into `vd`, success mask in `fd`.
    GatherLink {
        /// Output mask register index.
        fd: u8,
        /// Destination vector register index.
        vd: u8,
    },
    /// `vscattercond` — indexed store-conditional, success mask in `fd`.
    ScatterCond {
        /// Output mask register index.
        fd: u8,
    },
}

impl GsuKind {
    fn is_atomic(self) -> bool {
        matches!(
            self,
            GsuKind::GatherLink { .. } | GsuKind::ScatterCond { .. }
        )
    }
}

/// Completion record for one GSU instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GsuCompletion {
    /// Issuing SMT thread.
    pub tid: u8,
    /// Cycle at which the instruction (and the blocked thread) completes.
    pub done: u64,
    /// Destination vector register, when the instruction loads data.
    pub vd: Option<u8>,
    /// Gathered lanes for `vd`.
    pub lane_values: LaneValues,
    /// Output mask register, when the instruction produces a mask.
    pub fd: Option<u8>,
    /// Output mask value (bit per successful lane).
    pub mask: u32,
}

/// GSU event counters (feed the Table 4 analysis).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GsuStats {
    /// `vgather` instructions executed.
    pub gathers: u64,
    /// `vscatter` instructions executed.
    pub scatters: u64,
    /// `vgatherlink` instructions executed.
    pub gatherlinks: u64,
    /// `vscattercond` instructions executed.
    pub scatterconds: u64,
    /// Active elements processed (address generations).
    pub elems_active: u64,
    /// L1 line requests actually sent (post-combining), all kinds.
    pub line_requests: u64,
    /// L1 line requests sent by the two atomic instructions.
    pub atomic_line_requests: u64,
    /// Active elements of the two atomic instructions (what an uncombined
    /// implementation would have sent to the L1).
    pub atomic_elems: u64,
    /// `vgatherlink` element attempts.
    pub gl_elem_attempts: u64,
    /// `vgatherlink` elements failed (policy-induced, §3.2).
    pub gl_elem_failures: u64,
    /// `vscattercond` element attempts.
    pub sc_elem_attempts: u64,
    /// `vscattercond` elements that stored successfully.
    pub sc_elem_successes: u64,
    /// `vscattercond` elements failed by alias resolution (§3.1).
    pub sc_fail_alias: u64,
    /// `vscattercond` elements failed by a lost line reservation
    /// (conflicting store, eviction, or displaced link).
    pub sc_fail_reservation: u64,
}

impl GsuStats {
    /// Element failure rate of the atomic instructions, as in the last
    /// columns of Table 4: failed scatter-cond elements (alias + lost
    /// reservation) plus failed gather-link elements, over attempts.
    pub fn element_failure_rate(&self) -> f64 {
        let attempts = self.sc_elem_attempts + self.gl_elem_attempts;
        if attempts == 0 {
            return 0.0;
        }
        let failures = self.sc_fail_alias + self.sc_fail_reservation + self.gl_elem_failures;
        failures as f64 / attempts as f64
    }

    /// L1 accesses saved by same-line combining on atomic instructions.
    pub fn combining_savings(&self) -> u64 {
        self.atomic_elems.saturating_sub(self.atomic_line_requests)
    }

    /// Adds another core's counters into this one (for machine-wide
    /// aggregation).
    pub fn accumulate(&mut self, other: &GsuStats) {
        self.gathers += other.gathers;
        self.scatters += other.scatters;
        self.gatherlinks += other.gatherlinks;
        self.scatterconds += other.scatterconds;
        self.elems_active += other.elems_active;
        self.line_requests += other.line_requests;
        self.atomic_line_requests += other.atomic_line_requests;
        self.atomic_elems += other.atomic_elems;
        self.gl_elem_attempts += other.gl_elem_attempts;
        self.gl_elem_failures += other.gl_elem_failures;
        self.sc_elem_attempts += other.sc_elem_attempts;
        self.sc_elem_successes += other.sc_elem_successes;
        self.sc_fail_alias += other.sc_fail_alias;
        self.sc_fail_reservation += other.sc_fail_reservation;
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Elem {
    lane: u8,
    addr: u64,
    value: u32,
    alias_loser: bool,
    generated: bool,
}

#[derive(Clone, Copy, Debug, Default)]
struct LineReq {
    line: u64,
    issued: bool,
    done: u64,
    ok: bool,
    policy_fail: bool,
}

/// One thread's instruction-buffer entry. Its elements and line requests
/// are held inline (at most one of each per lane), so starting and
/// retiring an instruction allocates nothing.
#[derive(Clone, Debug)]
struct Slot {
    kind: GsuKind,
    elems: LaneList<Elem>,
    next_gen: usize,
    requests: LaneList<LineReq>,
    started: bool,
    start_cycle: u64,
    width: usize,
    lane_values: LaneValues,
    mask: u32,
    /// Requests not yet issued, derived from `requests` (not serialized).
    unissued: usize,
}

impl Slot {
    fn all_generated(&self) -> bool {
        self.next_gen >= self.elems.len()
    }

    /// [`unissued`](Slot::unissued), recomputed from the requests.
    fn count_unissued(&self) -> usize {
        self.requests.iter().filter(|r| !r.issued).count()
    }
}

/// The gather/scatter unit of one core.
#[derive(Clone, Debug)]
pub struct Gsu {
    slots: Vec<Option<Slot>>,
    rr: usize,
    cfg: GlscConfig,
    stats: GsuStats,
    /// Occupied slots, bit per thread. Derived from `slots` (rebuilt on
    /// decode, never serialized) so the per-tick scans visit only the
    /// slots that can act.
    busy: u32,
    /// Busy slots past the memory-ordering gate, likewise derived.
    started: u32,
}

/// The set bits of `mask` in round-robin order from bit `from`.
fn bits_from(mask: u32, from: usize) -> impl Iterator<Item = usize> {
    let high = u32::MAX << from;
    bits(mask & high).chain(bits(mask & !high))
}

impl Gsu {
    /// Creates a GSU with one instruction-buffer entry per SMT thread.
    pub fn new(threads: usize, cfg: GlscConfig) -> Self {
        Self {
            slots: vec![None; threads],
            rr: 0,
            cfg,
            stats: GsuStats::default(),
            busy: 0,
            started: 0,
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &GsuStats {
        &self.stats
    }

    /// Whether thread `tid` has an instruction in flight.
    pub fn busy(&self, tid: u8) -> bool {
        self.busy & 1 << tid != 0
    }

    /// Whether any thread has an instruction in flight.
    pub fn any_busy(&self) -> bool {
        self.busy != 0
    }

    /// Threads whose instruction still waits at the memory-ordering gate,
    /// bit per thread.
    pub fn unstarted(&self) -> u32 {
        self.busy & !self.started
    }

    /// The busy and started masks, recomputed from the slots.
    fn slot_masks(&self) -> (u32, u32) {
        let (mut busy, mut started) = (0, 0);
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(s) = slot {
                busy |= 1 << i;
                started |= u32::from(s.started) << i;
            }
        }
        (busy, started)
    }

    /// Checks the derived masks and counts against a recomputation from
    /// the slots (debug builds only).
    fn debug_check(&self) {
        debug_assert_eq!(
            (self.busy, self.started),
            self.slot_masks(),
            "GSU slot masks"
        );
        debug_assert!(
            self.slots
                .iter()
                .flatten()
                .all(|s| s.unissued == s.count_unissued()),
            "GSU unissued counts"
        );
    }

    /// Inserts an instruction into `tid`'s buffer entry. `elems` holds the
    /// active lanes only, as `(lane, element address, value)` (values are
    /// ignored by loads). `width` is the machine SIMD width, used for the
    /// minimum-latency bound.
    ///
    /// # Panics
    ///
    /// Panics if the thread already has an instruction in flight (the
    /// pipeline must block the thread while [`busy`](Self::busy)), or if
    /// `elems` has more than [`glsc_isa::MAX_SIMD_WIDTH`] lanes.
    pub fn start(&mut self, tid: u8, kind: GsuKind, elems: &[(u8, u64, u32)], width: usize) {
        assert!(
            !self.busy(tid),
            "GSU slot for thread {tid} already occupied"
        );
        match kind {
            GsuKind::Gather { .. } => self.stats.gathers += 1,
            GsuKind::Scatter => self.stats.scatters += 1,
            GsuKind::GatherLink { .. } => self.stats.gatherlinks += 1,
            GsuKind::ScatterCond { .. } => self.stats.scatterconds += 1,
        }
        let mut es = LaneList::new();
        for &(lane, addr, value) in elems {
            es.push(Elem {
                lane,
                addr,
                value,
                alias_loser: false,
                generated: false,
            });
        }
        // Alias detection for vscattercond: exactly one lane (the lowest)
        // per distinct address succeeds.
        if matches!(kind, GsuKind::ScatterCond { .. }) {
            for i in 0..es.len() {
                if es[..i]
                    .iter()
                    .any(|prev| prev.addr == es[i].addr && !prev.alias_loser)
                {
                    es[i].alias_loser = true;
                }
            }
        }
        self.slots[tid as usize] = Some(Slot {
            kind,
            elems: es,
            next_gen: 0,
            requests: LaneList::new(),
            started: false,
            start_cycle: 0,
            width,
            lane_values: LaneValues::default(),
            mask: 0,
            unissued: 0,
        });
        self.busy |= 1 << tid;
    }

    /// Marks `tid`'s pending instruction as started (the memory-ordering
    /// gate: its LSU requests have drained). Idempotent.
    pub fn mark_started(&mut self, tid: u8, now: u64) {
        if let Some(slot) = self.slots[tid as usize].as_mut() {
            if !slot.started {
                slot.started = true;
                slot.start_cycle = now;
                self.started |= 1 << tid;
            }
        }
    }

    /// The started slot `idx` (a bit of `self.started`).
    fn started_slot(slots: &mut [Option<Slot>], idx: usize) -> &mut Slot {
        slots[idx].as_mut().expect("started slots are occupied")
    }

    /// Whether any started slot still has an unissued line request (i.e.
    /// the GSU competes for the L1 port this cycle).
    pub fn wants_port(&self) -> bool {
        bits(self.started).any(|i| self.slots[i].as_ref().is_some_and(|s| s.unissued > 0))
    }

    /// Generates one element address (at most one per cycle across all
    /// slots, §4.1), combining it into an existing same-line request when
    /// possible. `core` identifies the owning core for the atomicity
    /// oracle's global thread numbering.
    pub fn generate_one(&mut self, core: usize, mem: &mut MemorySystem) {
        self.debug_check();
        let n = self.slots.len();
        for idx in bits_from(self.started, self.rr) {
            let slot = Self::started_slot(&mut self.slots, idx);
            if slot.all_generated() {
                continue;
            }
            self.rr = if idx + 1 == n { 0 } else { idx + 1 };
            let e = slot.next_gen;
            slot.next_gen += 1;
            slot.elems[e].generated = true;
            self.stats.elems_active += 1;
            let kind = slot.kind;
            if kind.is_atomic() {
                self.stats.atomic_elems += 1;
            }
            match kind {
                GsuKind::GatherLink { .. } => self.stats.gl_elem_attempts += 1,
                GsuKind::ScatterCond { .. } => self.stats.sc_elem_attempts += 1,
                _ => {}
            }
            if slot.elems[e].alias_loser {
                self.stats.sc_fail_alias += 1;
                return; // mask bit stays 0; generation cycle consumed
            }
            let line = line_of(slot.elems[e].addr, mem.cfg().line_bytes);
            if let Some(req_idx) = slot.requests.iter().position(|r| r.line == line) {
                if slot.requests[req_idx].issued {
                    // Pipelined instruction kinds let late elements ride an
                    // already-serviced request (never reached for
                    // vscattercond, whose requests wait for generation).
                    let req = slot.requests[req_idx];
                    Self::apply_elem(&mut self.stats, slot, e, &req, core, idx as u8, mem);
                }
            } else {
                slot.requests.push(LineReq {
                    line,
                    issued: false,
                    done: 0,
                    ok: false,
                    policy_fail: false,
                });
                slot.unissued += 1;
            }
            return;
        }
    }

    /// Issues one pending line request to the L1 (called when the GSU wins
    /// the port), trying the started slots round-robin. Applies data
    /// movement for every already-generated element riding on the request.
    pub fn issue_one(&mut self, core: usize, mem: &mut MemorySystem, now: u64) {
        for idx in bits_from(self.started, self.rr) {
            let slot = Self::started_slot(&mut self.slots, idx);
            // vscattercond requests are held until address generation (and
            // therefore same-line combining) completes, keeping each
            // combined conditional store atomic at the L1 port. The other
            // kinds pipeline generation with issue (§4.1).
            if slot.unissued == 0
                || matches!(slot.kind, GsuKind::ScatterCond { .. }) && !slot.all_generated()
            {
                continue;
            }
            let Some(req_idx) = slot.requests.iter().position(|r| !r.issued) else {
                continue;
            };
            let tid = idx as u8;
            let kind = slot.kind;
            let line = slot.requests[req_idx].line;

            let mut policy_fail = false;
            if matches!(kind, GsuKind::GatherLink { .. }) {
                if self.cfg.fail_on_l1_miss && mem.l1(core).peek(line).is_none() {
                    policy_fail = true;
                    // The element fails fast, but the fetch is still
                    // initiated (as a plain load, no link) so a retry can
                    // hit — otherwise cold data could never be linked and
                    // the software retry loop would spin forever.
                    let _ = mem.access(core, tid, MemOp::Load, line, now);
                    self.stats.line_requests += 1;
                }
                if self.cfg.fail_on_remote_link && mem.l1(core).other_reservations(line, tid) {
                    policy_fail = true;
                }
            }

            let (done, ok) = if policy_fail {
                (now + mem.cfg().l1_hit_latency, false)
            } else {
                let op = match kind {
                    GsuKind::Gather { .. } => MemOp::Load,
                    GsuKind::Scatter => MemOp::Store,
                    GsuKind::GatherLink { .. } => MemOp::LoadLinked,
                    GsuKind::ScatterCond { .. } => MemOp::StoreCond,
                };
                let r = mem.access(core, tid, op, line, now);
                self.stats.line_requests += 1;
                if kind.is_atomic() {
                    self.stats.atomic_line_requests += 1;
                }
                (r.done, r.sc_ok)
            };

            {
                let req = &mut slot.requests[req_idx];
                req.issued = true;
                req.done = done;
                req.ok = ok;
                req.policy_fail = policy_fail;
                slot.unissued -= 1;
            }
            let req = slot.requests[req_idx];
            let line_bytes = mem.cfg().line_bytes;
            // Every generated element on this line rides the request.
            // `apply_elem` never changes which elements those are.
            for e in 0..slot.elems.len() {
                let el = &slot.elems[e];
                if el.generated && !el.alias_loser && line_of(el.addr, line_bytes) == req.line {
                    Self::apply_elem(&mut self.stats, slot, e, &req, core, tid, mem);
                }
            }
            return;
        }
    }

    /// Performs one element's data movement and mask update against the
    /// outcome of its (possibly combined) line request, reporting the
    /// element to the atomicity oracle when one is installed.
    fn apply_elem(
        stats: &mut GsuStats,
        slot: &mut Slot,
        e: usize,
        req: &LineReq,
        core: usize,
        tid: u8,
        mem: &mut MemorySystem,
    ) {
        let lane = slot.elems[e].lane;
        let addr = slot.elems[e].addr;
        match slot.kind {
            GsuKind::Gather { .. } => {
                let v = mem.backing().read_u32(addr);
                slot.lane_values.set(lane as usize, v);
                slot.mask |= 1 << lane;
            }
            GsuKind::GatherLink { .. } => {
                if req.policy_fail {
                    stats.gl_elem_failures += 1;
                } else {
                    let v = mem.backing().read_u32(addr);
                    slot.lane_values.set(lane as usize, v);
                    slot.mask |= 1 << lane;
                    mem.oracle_note_link(core, tid, addr);
                }
            }
            GsuKind::Scatter => {
                mem.backing_mut().write_u32(addr, slot.elems[e].value);
                mem.oracle_note_store(core, tid, addr);
            }
            GsuKind::ScatterCond { .. } => {
                if req.ok {
                    mem.backing_mut().write_u32(addr, slot.elems[e].value);
                    slot.mask |= 1 << lane;
                    stats.sc_elem_successes += 1;
                    mem.oracle_note_sc_success(core, tid, addr);
                } else {
                    stats.sc_fail_reservation += 1;
                }
            }
        }
    }

    /// Retires finished instructions (every element generated, every
    /// request issued), handing each one's completion to `sink`. The
    /// reported completion cycle respects the minimum GSU latency
    /// (`overhead + SIMD-width`).
    pub fn collect_done_into(&mut self, mut sink: impl FnMut(GsuCompletion)) {
        for idx in bits(self.started) {
            let Some(slot) = self.slots[idx]
                .as_ref()
                .filter(|s| s.all_generated() && s.unissued == 0)
            else {
                continue;
            };
            let min_done = slot.start_cycle + self.cfg.min_latency_overhead + slot.width as u64;
            let done = slot
                .requests
                .iter()
                .map(|r| r.done)
                .max()
                .unwrap_or(0)
                .max(min_done);
            let (vd, fd) = match slot.kind {
                GsuKind::Gather { vd } => (Some(vd), None),
                GsuKind::Scatter => (None, None),
                GsuKind::GatherLink { fd, vd } => (Some(vd), Some(fd)),
                GsuKind::ScatterCond { fd } => (None, Some(fd)),
            };
            sink(GsuCompletion {
                tid: idx as u8,
                done,
                vd,
                lane_values: slot.lane_values,
                fd,
                mask: slot.mask,
            });
            self.slots[idx] = None;
            self.busy &= !(1 << idx);
            self.started &= !(1 << idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsc_mem::MemConfig;

    fn mem() -> MemorySystem {
        let cfg = MemConfig {
            prefetch: false,
            ..MemConfig::default()
        };
        MemorySystem::new(cfg, 1, 4)
    }

    /// Drives the GSU alone (generate + issue every cycle) to completion.
    fn run(gsu: &mut Gsu, mem: &mut MemorySystem, start: u64) -> GsuCompletion {
        for t in 0..4 {
            gsu.mark_started(t, start);
        }
        let mut now = start;
        loop {
            gsu.generate_one(0, mem);
            gsu.issue_one(0, mem, now);
            let mut done = None;
            gsu.collect_done_into(|c| done = Some(c));
            if let Some(c) = done {
                return c;
            }
            now += 1;
            assert!(now < start + 10_000, "GSU failed to complete");
        }
    }

    #[test]
    fn gather_reads_values_and_combines_lines() {
        let mut m = mem();
        m.backing_mut().write_u32_slice(0x100, &[10, 20, 30, 40]);
        m.backing_mut().write_u32(0x1000, 99);
        let mut g = Gsu::new(4, GlscConfig::default());
        // Lanes 0,1,3 on line 0x100; lane 2 on line 0x1000.
        g.start(
            0,
            GsuKind::Gather { vd: 3 },
            &[(0, 0x100, 0), (1, 0x104, 0), (2, 0x1000, 0), (3, 0x10c, 0)],
            4,
        );
        let c = run(&mut g, &mut m, 0);
        assert_eq!(c.vd, Some(3));
        let lv: Vec<_> = c.lane_values.iter().collect();
        assert_eq!(lv, vec![(0, 10), (1, 20), (2, 99), (3, 40)]);
        assert_eq!(g.stats().line_requests, 2, "same-line accesses combined");
        assert_eq!(g.stats().elems_active, 4);
    }

    #[test]
    fn min_latency_respected_on_all_hit() {
        let mut m = mem();
        // Warm the line.
        m.access(0, 0, glsc_mem::MemOp::Load, 0x100, 0);
        let mut g = Gsu::new(4, GlscConfig::default());
        g.start(0, GsuKind::Gather { vd: 1 }, &[(0, 0x100, 0)], 4);
        let c = run(&mut g, &mut m, 1000);
        assert!(c.done >= 1000 + 4 + 4, "min GLSC latency is 4 + SIMD-width");
    }

    #[test]
    fn gatherlink_sets_reservations_and_mask() {
        let mut m = mem();
        let mut g = Gsu::new(4, GlscConfig::default());
        g.start(
            2,
            GsuKind::GatherLink { fd: 1, vd: 5 },
            &[(0, 0x100, 0), (2, 0x2000, 0)],
            4,
        );
        let c = run(&mut g, &mut m, 0);
        assert_eq!(c.mask, 0b101);
        assert_eq!(c.fd, Some(1));
        assert!(m.holds_reservation(0, 2, 0x100));
        assert!(m.holds_reservation(0, 2, 0x2000));
    }

    #[test]
    fn scattercond_succeeds_after_link_and_writes() {
        let mut m = mem();
        let mut g = Gsu::new(4, GlscConfig::default());
        g.start(
            0,
            GsuKind::GatherLink { fd: 0, vd: 0 },
            &[(0, 0x100, 0), (1, 0x104, 0)],
            4,
        );
        let c1 = run(&mut g, &mut m, 0);
        assert_eq!(c1.mask, 0b11);
        g.start(
            0,
            GsuKind::ScatterCond { fd: 0 },
            &[(0, 0x100, 7), (1, 0x104, 8)],
            4,
        );
        let c2 = run(&mut g, &mut m, c1.done);
        assert_eq!(c2.mask, 0b11);
        assert_eq!(m.backing().read_u32(0x100), 7);
        assert_eq!(m.backing().read_u32(0x104), 8);
        // Both elements on one line: one ll + one sc request in total.
        assert_eq!(g.stats().atomic_line_requests, 2);
        assert_eq!(g.stats().atomic_elems, 4);
        assert_eq!(g.stats().combining_savings(), 2);
    }

    #[test]
    fn scattercond_alias_lets_exactly_one_lane_win() {
        let mut m = mem();
        let mut g = Gsu::new(4, GlscConfig::default());
        g.start(
            0,
            GsuKind::GatherLink { fd: 0, vd: 0 },
            &[(0, 0x100, 0), (1, 0x100, 0), (2, 0x100, 0)],
            4,
        );
        let c1 = run(&mut g, &mut m, 0);
        assert_eq!(c1.mask, 0b111, "aliased gather-links all load");
        g.start(
            0,
            GsuKind::ScatterCond { fd: 0 },
            &[(0, 0x100, 5), (1, 0x100, 6), (2, 0x100, 7)],
            4,
        );
        let c2 = run(&mut g, &mut m, c1.done);
        assert_eq!(c2.mask, 0b001, "lowest lane wins the alias");
        assert_eq!(m.backing().read_u32(0x100), 5);
        assert_eq!(g.stats().sc_fail_alias, 2);
        assert_eq!(g.stats().sc_elem_successes, 1);
    }

    #[test]
    fn full_width_instructions_hold_32_lanes_on_32_lines() {
        let mut m = mem();
        let mut g = Gsu::new(4, GlscConfig::default());
        // One element per line, at varying offsets within the line.
        let addr = |lane: usize| 0x4000 + 64 * lane as u64 + 4 * (lane as u64 % 16);
        for lane in 0..32 {
            m.backing_mut().write_u32(addr(lane), 100 + lane as u32);
        }
        let elems: Vec<(u8, u64, u32)> = (0..32).map(|l| (l as u8, addr(l), 0)).collect();
        g.start(0, GsuKind::GatherLink { fd: 0, vd: 0 }, &elems, 32);
        let c1 = run(&mut g, &mut m, 0);
        assert_eq!(c1.mask, u32::MAX);
        let want: Vec<_> = (0..32).map(|l| (l, 100 + l as u32)).collect();
        assert_eq!(c1.lane_values.iter().collect::<Vec<_>>(), want);
        assert_eq!(
            g.stats().atomic_line_requests,
            32,
            "no two lanes share a line"
        );
        assert!(c1.done >= 4 + 32, "min latency counts all 32 lanes");

        // Lanes 30 and 31 alias lanes 0 and 1: the lower lane wins each.
        let target = |l: usize| addr(if l >= 30 { l - 30 } else { l });
        let elems: Vec<(u8, u64, u32)> = (0..32)
            .map(|l| (l as u8, target(l), 200 + l as u32))
            .collect();
        g.start(0, GsuKind::ScatterCond { fd: 0 }, &elems, 32);
        let c2 = run(&mut g, &mut m, c1.done);
        assert_eq!(c2.mask, u32::MAX >> 2);
        assert_eq!(g.stats().sc_fail_alias, 2);
        assert_eq!(g.stats().sc_elem_successes, 30);
        assert_eq!(g.stats().atomic_line_requests, 32 + 30);
        for l in 0..30 {
            assert_eq!(m.backing().read_u32(addr(l)), 200 + l as u32);
        }
    }

    #[test]
    fn scattercond_fails_when_reservation_lost() {
        let mut m = mem();
        let mut g = Gsu::new(4, GlscConfig::default());
        g.start(0, GsuKind::GatherLink { fd: 0, vd: 0 }, &[(0, 0x100, 0)], 4);
        let c1 = run(&mut g, &mut m, 0);
        // An intervening store (same core, different thread) kills the link.
        m.access(0, 3, glsc_mem::MemOp::Store, 0x100, c1.done);
        g.start(0, GsuKind::ScatterCond { fd: 0 }, &[(0, 0x100, 9)], 4);
        let c2 = run(&mut g, &mut m, c1.done + 1);
        assert_eq!(c2.mask, 0);
        assert_ne!(m.backing().read_u32(0x100), 9);
        assert_eq!(g.stats().sc_fail_reservation, 1);
        assert!(g.stats().element_failure_rate() > 0.0);
    }

    #[test]
    fn fail_on_miss_policy_fails_cold_elements() {
        let mut m = mem();
        let cfg = GlscConfig {
            fail_on_l1_miss: true,
            ..GlscConfig::default()
        };
        let mut g = Gsu::new(4, cfg);
        // Warm one line only.
        m.access(0, 0, glsc_mem::MemOp::Load, 0x100, 0);
        g.start(
            0,
            GsuKind::GatherLink { fd: 0, vd: 0 },
            &[(0, 0x100, 0), (1, 0x5000, 0)],
            4,
        );
        let c = run(&mut g, &mut m, 400);
        assert_eq!(c.mask, 0b01, "cold lane fails under the miss policy");
        assert_eq!(g.stats().gl_elem_failures, 1);
    }

    #[test]
    fn empty_mask_instruction_still_completes() {
        let mut m = mem();
        let mut g = Gsu::new(4, GlscConfig::default());
        g.start(1, GsuKind::ScatterCond { fd: 2 }, &[], 4);
        let c = run(&mut g, &mut m, 10);
        assert_eq!(c.mask, 0);
        assert_eq!(c.done, 10 + 4 + 4);
    }

    #[test]
    fn slots_are_per_thread_and_busy_tracked() {
        let mut g = Gsu::new(2, GlscConfig::default());
        assert!(!g.busy(0));
        g.start(0, GsuKind::Scatter, &[(0, 0x100, 1)], 4);
        assert!(g.busy(0));
        assert!(!g.busy(1));
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_start_panics() {
        let mut g = Gsu::new(1, GlscConfig::default());
        g.start(0, GsuKind::Scatter, &[], 4);
        g.start(0, GsuKind::Scatter, &[], 4);
    }

    #[test]
    fn two_threads_interleave_generation() {
        let mut m = mem();
        let mut g = Gsu::new(2, GlscConfig::default());
        g.start(
            0,
            GsuKind::Gather { vd: 0 },
            &[(0, 0x100, 0), (1, 0x200, 0)],
            4,
        );
        g.start(
            1,
            GsuKind::Gather { vd: 1 },
            &[(0, 0x300, 0), (1, 0x400, 0)],
            4,
        );
        g.mark_started(0, 0);
        g.mark_started(1, 0);
        let mut done = Vec::new();
        let mut now = 0;
        while done.len() < 2 {
            g.generate_one(0, &mut m);
            g.issue_one(0, &mut m, now);
            g.collect_done_into(|c| done.push(c));
            now += 1;
            assert!(now < 1000);
        }
        assert_eq!(g.stats().gathers, 2);
        assert_eq!(g.stats().elems_active, 4);
    }
}

// ---- durable-snapshot serialization --------------------------------------

impl glsc_wire::Wire for GsuKind {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        match self {
            GsuKind::Gather { vd } => {
                w.put_u8(0);
                vd.encode(w);
            }
            GsuKind::Scatter => w.put_u8(1),
            GsuKind::GatherLink { fd, vd } => {
                w.put_u8(2);
                fd.encode(w);
                vd.encode(w);
            }
            GsuKind::ScatterCond { fd } => {
                w.put_u8(3);
                fd.encode(w);
            }
        }
    }

    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        use glsc_wire::Wire;
        let at = r.pos();
        Ok(match r.get_u8()? {
            0 => GsuKind::Gather {
                vd: Wire::decode(r)?,
            },
            1 => GsuKind::Scatter,
            2 => GsuKind::GatherLink {
                fd: Wire::decode(r)?,
                vd: Wire::decode(r)?,
            },
            3 => GsuKind::ScatterCond {
                fd: Wire::decode(r)?,
            },
            _ => {
                return Err(glsc_wire::WireError::Invalid {
                    at,
                    what: "GsuKind tag",
                })
            }
        })
    }
}

glsc_wire::wire_struct!(GsuStats {
    gathers,
    scatters,
    gatherlinks,
    scatterconds,
    elems_active,
    line_requests,
    atomic_line_requests,
    atomic_elems,
    gl_elem_attempts,
    gl_elem_failures,
    sc_elem_attempts,
    sc_elem_successes,
    sc_fail_alias,
    sc_fail_reservation,
});
glsc_wire::wire_struct!(Elem {
    lane,
    addr,
    value,
    alias_loser,
    generated,
});
glsc_wire::wire_struct!(LineReq {
    line,
    issued,
    done,
    ok,
    policy_fail,
});
glsc_wire::wire_struct!(Slot {
    kind,
    elems,
    next_gen,
    requests,
    started,
    start_cycle,
    width,
    lane_values,
    mask,
} derived { unissued } => |s| s.unissued = s.count_unissued());
glsc_wire::wire_struct!(Gsu {
    slots,
    rr,
    cfg,
    stats,
} derived { busy, started } => |g| (g.busy, g.started) = g.slot_masks());
