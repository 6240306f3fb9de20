//! Per-core memory unit: LSU + GSU behind one L1 port.
//!
//! Arbitration follows §4.1: "The L1 cache arbitrates between the LSU and
//! the GSU, giving the LSU higher priority", and the GSU "generates at most
//! one cache request per cycle".

use crate::config::GlscConfig;
use crate::gsu::{Gsu, GsuCompletion, GsuKind};
use crate::lsu::{Lsu, LsuCompletion, LsuEntry};
use glsc_mem::{LineInterleave, MemoryOrder, MemorySystem};

/// A completion event from either unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemCompletion {
    /// From the load/store unit.
    Lsu(LsuCompletion),
    /// From the gather/scatter unit.
    Gsu(GsuCompletion),
}

/// One core's memory-side machinery (Fig. 1 right-hand side).
#[derive(Clone, Debug)]
pub struct CoreMemUnit {
    core_id: usize,
    threads: usize,
    lsu: Lsu,
    gsu: Gsu,
    /// Whether both units are drained, refreshed on every push, start and
    /// tick (derived: rebuilt on decode, never serialized).
    idle: bool,
}

impl CoreMemUnit {
    /// Creates a sequentially-consistent memory unit for core `core_id`
    /// with `threads` SMT threads.
    pub fn new(core_id: usize, threads: usize, cfg: GlscConfig) -> Self {
        Self::with_order(
            core_id,
            threads,
            cfg,
            MemoryOrder::Sc,
            LineInterleave::new(1),
        )
    }

    /// Creates the memory unit for core `core_id` implementing `order`.
    /// `banks` must be the
    /// [`MemConfig::bank_interleave`](glsc_mem::MemConfig::bank_interleave)
    /// of the memory system the unit will be ticked against (it is the
    /// relaxed model's drain-skew bank function).
    pub fn with_order(
        core_id: usize,
        threads: usize,
        cfg: GlscConfig,
        order: MemoryOrder,
        banks: LineInterleave,
    ) -> Self {
        Self {
            core_id,
            threads,
            lsu: Lsu::with_order(threads, order, banks),
            gsu: Gsu::new(threads, cfg),
            idle: true,
        }
    }

    /// LSU counters.
    pub fn lsu_stats(&self) -> &crate::lsu::LsuStats {
        self.lsu.stats()
    }

    /// GSU counters.
    pub fn gsu_stats(&self) -> &crate::gsu::GsuStats {
        self.gsu.stats()
    }

    /// Whether thread `tid` may issue a store this cycle.
    pub fn can_accept_store(&self, tid: u8) -> bool {
        self.lsu.can_accept_store(tid)
    }

    /// Enqueues an LSU request issued at cycle `now` (see [`Lsu::push`]).
    ///
    /// # Panics
    ///
    /// Panics on write-buffer overflow.
    pub fn lsu_push(&mut self, entry: LsuEntry, now: u64) {
        self.lsu.push(entry, now);
        self.idle = false;
    }

    /// Number of LSU entries pending for `tid` (queue only; see
    /// [`lsu_thread_pending`](Self::lsu_thread_pending) for the
    /// fence-relevant total).
    pub fn lsu_thread_entries(&self, tid: u8) -> usize {
        self.lsu.thread_entries(tid)
    }

    /// Queued entries plus buffered stores pending for `tid` — what
    /// fences and the GSU ordering gate wait on.
    pub fn lsu_thread_pending(&self, tid: u8) -> usize {
        self.lsu.thread_pending(tid)
    }

    /// Stores `tid` currently holds in its write buffer.
    pub fn lsu_buffered_stores(&self, tid: u8) -> usize {
        self.lsu.buffered_stores(tid)
    }

    /// Counts one retired fence for the Table-4 counters.
    pub fn note_fence(&mut self) {
        self.lsu.note_fence();
    }

    /// Whether `tid` has a GSU instruction in flight.
    pub fn gsu_busy(&self, tid: u8) -> bool {
        self.gsu.busy(tid)
    }

    /// Whether both units are drained (no queued LSU requests, no GSU
    /// instructions in flight). The machine only finishes once every
    /// core's memory unit is idle, so buffered stores always commit.
    pub fn is_idle(&self) -> bool {
        debug_assert_eq!(self.idle, self.drained(), "cached idle flag");
        self.idle
    }

    /// [`is_idle`](Self::is_idle), recomputed from both units.
    fn drained(&self) -> bool {
        !self.lsu.is_busy() && !self.gsu.any_busy()
    }

    /// Inserts a GSU instruction for `tid` (see [`Gsu::start`]). Ordering
    /// point: the thread's buffered stores are flushed into the LSU queue
    /// first (§2.2 — the GSU instruction then waits until "corresponding
    /// requests in the LSU and write buffer have been sent to the L1").
    ///
    /// # Panics
    ///
    /// Panics if the thread's GSU slot is occupied.
    pub fn gsu_start(&mut self, tid: u8, kind: GsuKind, elems: &[(u8, u64, u32)], width: usize) {
        self.lsu.flush_thread_for_ordering(tid);
        self.gsu.start(tid, kind, elems, width);
        self.idle = false;
    }

    /// Stages the source register of `tid`'s vector store (see
    /// [`Lsu::stage_vector_store`]).
    pub fn lsu_stage_vector_store(&mut self, tid: u8, values: &[u32]) {
        self.lsu.stage_vector_store(tid, values);
    }

    /// Advances the unit one cycle: releases GSU instructions whose
    /// thread's LSU traffic has drained, generates one GSU address, grants
    /// the single L1 port (LSU first), and appends the completions to
    /// `out`, so the machine loop reuses one buffer across cores and
    /// cycles.
    pub fn tick_into(&mut self, mem: &mut MemorySystem, now: u64, out: &mut Vec<MemCompletion>) {
        // Memory-ordering gate: a thread's GSU instruction starts only once
        // its earlier LSU requests — including buffered stores — have been
        // sent to the L1.
        for tid in crate::lanes::bits(self.gsu.unstarted()) {
            if self.lsu.thread_pending(tid as u8) == 0 {
                self.gsu.mark_started(tid as u8, now);
            }
        }

        self.gsu.generate_one(self.core_id, mem);

        if self.lsu.wants_port(now) {
            if let Some(c) = self.lsu.tick(self.core_id, mem, now) {
                out.push(MemCompletion::Lsu(c));
            }
        } else if self.gsu.wants_port() {
            self.gsu.issue_one(self.core_id, mem, now);
        }

        self.gsu
            .collect_done_into(|c| out.push(MemCompletion::Gsu(c)));
        self.idle = self.drained();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsu::LsuAction;
    use glsc_mem::MemConfig;

    fn mem() -> MemorySystem {
        let cfg = MemConfig {
            prefetch: false,
            ..MemConfig::default()
        };
        MemorySystem::new(cfg, 1, 4)
    }

    /// One tick's completions.
    fn tick(unit: &mut CoreMemUnit, mem: &mut MemorySystem, now: u64) -> Vec<MemCompletion> {
        let mut out = Vec::new();
        unit.tick_into(mem, now, &mut out);
        out
    }

    fn drain(
        unit: &mut CoreMemUnit,
        mem: &mut MemorySystem,
        mut now: u64,
        want: usize,
    ) -> Vec<MemCompletion> {
        let mut out = Vec::new();
        while out.len() < want {
            unit.tick_into(mem, now, &mut out);
            now += 1;
            assert!(now < 100_000, "memory unit wedged");
        }
        out
    }

    #[test]
    fn lsu_has_priority_over_gsu() {
        let mut m = mem();
        let mut u = CoreMemUnit::new(0, 4, GlscConfig::default());
        // Thread 1 queues a load; thread 0 starts a gather. The load's
        // completion must be produced by the first tick (port granted to
        // the LSU).
        u.lsu_push(
            LsuEntry {
                tid: 1,
                addr: 0x40,
                action: LsuAction::LoadTo { rd: 1 },
            },
            0,
        );
        u.gsu_start(0, GsuKind::Gather { vd: 0 }, &[(0, 0x80, 0)], 4);
        let first = tick(&mut u, &mut m, 0);
        assert!(matches!(
            first[0],
            MemCompletion::Lsu(LsuCompletion::ScalarLoad { .. })
        ));
        // The gather still completes afterwards.
        let rest = drain(&mut u, &mut m, 1, 1);
        assert!(matches!(rest[0], MemCompletion::Gsu(_)));
    }

    #[test]
    fn gsu_waits_for_same_thread_lsu_traffic() {
        let mut m = mem();
        let mut u = CoreMemUnit::new(0, 4, GlscConfig::default());
        u.lsu_push(
            LsuEntry {
                tid: 0,
                addr: 0x40,
                action: LsuAction::StoreVal { value: 3 },
            },
            0,
        );
        u.gsu_start(0, GsuKind::Gather { vd: 0 }, &[(0, 0x40, 0)], 4);
        // Tick once: the store drains this very cycle, so the GSU gate
        // opens only on the *next* tick.
        let c0 = tick(&mut u, &mut m, 0);
        assert!(matches!(
            c0[0],
            MemCompletion::Lsu(LsuCompletion::StoreDrained { .. })
        ));
        let rest = drain(&mut u, &mut m, 1, 1);
        match &rest[0] {
            MemCompletion::Gsu(g) => {
                // The gather observes the stored value (FIFO ordering).
                assert_eq!(g.lane_values.iter().collect::<Vec<_>>(), vec![(0, 3)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn glsc_retry_loop_converges_via_unit() {
        // A full gather-link / increment / scatter-cond sequence driven
        // through the unit, with an aliased pair: needs two rounds.
        let mut m = mem();
        let mut u = CoreMemUnit::new(0, 4, GlscConfig::default());
        m.backing_mut().write_u32(0x100, 0);
        let mut todo: Vec<u8> = vec![0, 1]; // both lanes target 0x100
        let mut rounds = 0;
        while !todo.is_empty() {
            rounds += 1;
            let elems: Vec<(u8, u64, u32)> = todo.iter().map(|&l| (l, 0x100, 0)).collect();
            u.gsu_start(0, GsuKind::GatherLink { fd: 0, vd: 0 }, &elems, 4);
            let gl = loop {
                let cs = tick(&mut u, &mut m, 0);
                if let Some(MemCompletion::Gsu(g)) = cs.into_iter().next() {
                    break g;
                }
            };
            let elems: Vec<(u8, u64, u32)> = todo
                .iter()
                .filter(|&&l| gl.mask & (1 << l) != 0)
                .map(|&l| {
                    let old = gl.lane_values.get(l as usize).unwrap();
                    (l, 0x100, old + 1)
                })
                .collect();
            u.gsu_start(0, GsuKind::ScatterCond { fd: 0 }, &elems, 4);
            let sc = loop {
                let cs = tick(&mut u, &mut m, 0);
                if let Some(MemCompletion::Gsu(g)) = cs.into_iter().next() {
                    break g;
                }
            };
            todo.retain(|&l| sc.mask & (1 << l) == 0);
            assert!(rounds < 10, "retry loop failed to converge");
        }
        assert_eq!(m.backing().read_u32(0x100), 2, "both increments landed");
        assert_eq!(rounds, 2, "alias forces exactly one retry");
    }
}

glsc_wire::wire_struct!(CoreMemUnit {
    core_id,
    threads,
    lsu,
    gsu,
} derived { idle } => |u| u.idle = u.drained());
