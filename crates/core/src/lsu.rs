//! Load/store unit: FIFO request queue + per-thread write buffer.
//!
//! One entry is dequeued per cycle when the unit wins the L1 port (the LSU
//! always has priority over the GSU, §4.1). Stores occupy write-buffer
//! slots from issue until their port grant, so a thread with a full write
//! buffer stalls.
//!
//! ## Memory ordering (DESIGN.md §17)
//!
//! Under the default [`MemoryOrder::Sc`] every request — including stores
//! — travels through the shared FIFO queue and commits at port grant, so
//! a thread's loads always observe its earlier stores and one total store
//! order exists: sequential consistency, byte-identical to the historical
//! simulator.
//!
//! Under [`MemoryOrder::Tso`] plain scalar stores are instead *held* in
//! the issuing thread's write buffer for a residency delay
//! ([`STORE_DRAIN_DELAY`]) and drain FIFO per thread when the L1 port is
//! otherwise free; loads bypass buffered stores (taking exact-address
//! store-to-load forwarding from the thread's own buffer), which exhibits
//! the classic SB store-buffering relaxation while keeping store-store
//! order.
//!
//! Under [`MemoryOrder::RelaxedFence`] a buffered store only becomes
//! drain-*eligible* after a per-L2-bank skewed delay
//! ([`RELAXED_BANK_SKEW`]) and the earliest-eligible store drains first,
//! so same-thread stores to different banks commit out of program order
//! (the MP message-passing relaxation) until a fence intervenes.
//!
//! Atomics (`sc`) and vector loads/stores are ordering points under every
//! model: pushing one first flushes the thread's write buffer into the
//! FIFO queue ahead of it, as x86 atomics drain the store buffer.

use crate::lanes::{bits, LaneValues};
use glsc_isa::ELEM_BYTES;
use glsc_mem::{LineInterleave, MemOp, MemoryOrder, MemorySystem};
use std::collections::VecDeque;

/// Cycles a buffered store must stay resident before it may drain (TSO
/// and relaxed models). Long enough that a load issued the cycle after
/// its store wins the race to the L1 port — the SB relaxation window.
pub const STORE_DRAIN_DELAY: u64 = 8;

/// Extra residency cycles per L2-bank class (bank index mod 4) under
/// [`MemoryOrder::RelaxedFence`], modelling skewed per-bank drain queues.
/// Large enough that a store to a skewed bank is still buffered while a
/// later same-thread store to bank class 0 drains and is observed — the
/// MP relaxation window.
pub const RELAXED_BANK_SKEW: u64 = 24;

/// What to do when an LSU entry wins the port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LsuAction {
    /// Scalar 32-bit load into register `rd`.
    LoadTo {
        /// Destination scalar register index.
        rd: u8,
    },
    /// Scalar 32-bit store of `value`.
    StoreVal {
        /// Value to store.
        value: u32,
    },
    /// Scalar load-linked into register `rd`.
    LlTo {
        /// Destination scalar register index.
        rd: u8,
    },
    /// Scalar store-conditional of `value`; `rd` receives 1/0.
    ScVal {
        /// Success-flag destination register index.
        rd: u8,
        /// Value to store on success.
        value: u32,
    },
    /// One line's worth of a blocking unit-stride vector load. The entry's
    /// address is the lowest lane's element address, and each further
    /// lane's element follows at [`ELEM_BYTES`] per lane.
    VLoadLanes {
        /// Lanes on this line, bit per lane.
        lanes: u32,
    },
    /// One line's worth of a blocking unit-stride vector store, addressed
    /// as [`VLoadLanes`](LsuAction::VLoadLanes). The lane values are the
    /// thread's staged store data (see
    /// [`Lsu::stage_vector_store`]).
    VStoreLanes {
        /// Lanes on this line, bit per lane.
        lanes: u32,
    },
}

/// A queued LSU request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LsuEntry {
    /// Issuing SMT thread.
    pub tid: u8,
    /// Request address (any address within the target line).
    pub addr: u64,
    /// Action at port grant.
    pub action: LsuAction,
}

/// Completion event handed back to the pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LsuCompletion {
    /// A scalar load's data is available in `rd` at `done`.
    ScalarLoad {
        /// Thread.
        tid: u8,
        /// Destination register index.
        rd: u8,
        /// Loaded value.
        value: u32,
        /// Completion cycle.
        done: u64,
    },
    /// A store-conditional resolved; `rd` gets `ok as u32` at `done`.
    ScalarSc {
        /// Thread.
        tid: u8,
        /// Success-flag register index.
        rd: u8,
        /// Whether the reservation held and the store was performed.
        ok: bool,
        /// Completion cycle.
        done: u64,
    },
    /// A buffered store drained (write-buffer slot freed at grant time).
    StoreDrained {
        /// Thread.
        tid: u8,
    },
    /// Part of a blocking vector load/store finished; the pipeline unblocks
    /// the thread when its outstanding part count reaches zero.
    VectorPart {
        /// Thread.
        tid: u8,
        /// Loaded lanes (none for stores).
        lane_values: LaneValues,
        /// Completion cycle of this part.
        done: u64,
    },
}

/// Counters for Table 4-style analysis.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LsuStats {
    /// Scalar loads serviced.
    pub loads: u64,
    /// Scalar stores serviced.
    pub stores: u64,
    /// Load-linked requests serviced (atomic-op L1 accesses in Base).
    pub lls: u64,
    /// Store-conditional requests serviced.
    pub scs: u64,
    /// Store-conditional requests that succeeded.
    pub sc_successes: u64,
    /// Line requests serviced for vector loads/stores.
    pub vector_line_requests: u64,
    /// Fence instructions retired (always 0 in programs without fences).
    pub fences: u64,
    /// Buffered stores drained from a write buffer to the L1 port (always
    /// 0 under [`MemoryOrder::Sc`], where stores use the FIFO queue).
    pub wbuf_drains: u64,
    /// Scalar loads satisfied by store-to-load forwarding from the
    /// issuing thread's own write buffer.
    pub load_forwards: u64,
}

impl LsuStats {
    /// Adds another core's counters into this one (for machine-wide
    /// aggregation).
    pub fn accumulate(&mut self, other: &LsuStats) {
        self.loads += other.loads;
        self.stores += other.stores;
        self.lls += other.lls;
        self.scs += other.scs;
        self.sc_successes += other.sc_successes;
        self.vector_line_requests += other.vector_line_requests;
        self.fences += other.fences;
        self.wbuf_drains += other.wbuf_drains;
        self.load_forwards += other.load_forwards;
    }
}

/// One store held in a thread's write buffer under a non-SC model.
#[derive(Clone, Debug, PartialEq, Eq)]
struct BufferedStore {
    /// Word address.
    addr: u64,
    /// Value to commit at drain.
    value: u32,
    /// First cycle at which this entry may drain.
    ready: u64,
}

glsc_wire::wire_struct!(BufferedStore { addr, value, ready });

/// The load/store unit of one core.
#[derive(Clone, Debug)]
pub struct Lsu {
    queue: VecDeque<LsuEntry>,
    store_slots_used: Vec<usize>,
    store_slots_max: usize,
    /// Queued entries per thread, kept in sync with `queue` so the GSU's
    /// per-cycle ordering gate is O(1) instead of a queue scan.
    thread_counts: Vec<usize>,
    stats: LsuStats,
    /// Memory-consistency model in effect (selects the store path).
    order: MemoryOrder,
    /// Per-thread write buffers holding not-yet-drained stores. Always
    /// empty under [`MemoryOrder::Sc`].
    wbuf: Vec<VecDeque<BufferedStore>>,
    /// Round-robin pointer for fair TSO drains across threads.
    drain_rr: usize,
    /// Each thread's vector-store data, staged when the store issues. The
    /// thread stays blocked until every part of the store has been
    /// serviced, so one vector per thread suffices.
    staged: Vec<LaneValues>,
    /// The memory system's line-to-bank mapping, for the relaxed model's
    /// per-bank drain skew.
    banks: LineInterleave,
}

impl Lsu {
    /// Creates a sequentially-consistent LSU for `threads` SMT threads
    /// with `write_buffer_entries` store slots each.
    pub fn new(threads: usize, write_buffer_entries: usize) -> Self {
        Self::with_order(
            threads,
            write_buffer_entries,
            MemoryOrder::Sc,
            LineInterleave::new(64, 1),
        )
    }

    /// Creates an LSU implementing `order`. `banks` is the bank function
    /// of the relaxed model's drain skew; it must be the
    /// [`MemConfig::bank_interleave`](glsc_mem::MemConfig::bank_interleave)
    /// of the memory system the unit will be ticked against.
    pub fn with_order(
        threads: usize,
        write_buffer_entries: usize,
        order: MemoryOrder,
        banks: LineInterleave,
    ) -> Self {
        Self {
            queue: VecDeque::new(),
            store_slots_used: vec![0; threads],
            store_slots_max: write_buffer_entries,
            thread_counts: vec![0; threads],
            stats: LsuStats::default(),
            order,
            wbuf: vec![VecDeque::new(); threads],
            drain_rr: 0,
            staged: vec![LaneValues::default(); threads],
            banks,
        }
    }

    /// The memory-consistency model this unit implements.
    pub fn order(&self) -> MemoryOrder {
        self.order
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &LsuStats {
        &self.stats
    }

    /// Whether thread `tid` can issue a store this cycle (write buffer not
    /// full).
    pub fn can_accept_store(&self, tid: u8) -> bool {
        self.store_slots_used[tid as usize] < self.store_slots_max
    }

    /// Number of queued entries belonging to `tid` (used by the GSU to
    /// order GSU instructions after the thread's pending LSU requests,
    /// §2.2: "a conflicting request waits in the GSU until corresponding
    /// requests in the LSU and write buffer have been sent to the L1").
    /// Does **not** include buffered stores; see
    /// [`thread_pending`](Self::thread_pending).
    pub fn thread_entries(&self, tid: u8) -> usize {
        self.thread_counts[tid as usize]
    }

    /// Number of stores `tid` currently holds in its write buffer (always
    /// 0 under [`MemoryOrder::Sc`]).
    pub fn buffered_stores(&self, tid: u8) -> usize {
        self.wbuf[tid as usize].len()
    }

    /// Total pending work for `tid`: queued entries plus buffered stores.
    /// This is the quantity fences and the GSU ordering gate wait on.
    pub fn thread_pending(&self, tid: u8) -> usize {
        self.thread_counts[tid as usize] + self.wbuf[tid as usize].len()
    }

    /// Whether any request is queued or any store is buffered. The
    /// machine must not finish while this holds — buffered stores always
    /// commit. Under [`MemoryOrder::Sc`] the write buffers are never
    /// used, so only the queue is consulted.
    pub fn is_busy(&self) -> bool {
        !self.queue.is_empty()
            || (self.order.buffers_stores() && self.wbuf.iter().any(|q| !q.is_empty()))
    }

    /// Whether the unit would use the L1 port at cycle `now`: the queue
    /// has a head, or some buffered store is drain-eligible. Unlike
    /// [`is_busy`](Self::is_busy) this lets the GSU take the port while
    /// buffered stores are merely waiting out their residency delay.
    pub fn wants_port(&self, now: u64) -> bool {
        !self.queue.is_empty()
            || (self.order.buffers_stores()
                && self.wbuf.iter().any(|q| q.iter().any(|e| e.ready <= now)))
    }

    /// Counts one retired fence instruction (the pipeline enforces fence
    /// ordering; the LSU only keeps the Table-4 counter).
    pub fn note_fence(&mut self) {
        self.stats.fences += 1;
    }

    /// First cycle at which a store to `addr` pushed at `now` may drain.
    fn drain_ready(&self, addr: u64, now: u64) -> u64 {
        match self.order {
            MemoryOrder::Sc => now,
            MemoryOrder::Tso => now + STORE_DRAIN_DELAY,
            MemoryOrder::RelaxedFence => {
                let bank = self.banks.index(addr) as u64;
                now + STORE_DRAIN_DELAY + RELAXED_BANK_SKEW * (bank % 4)
            }
        }
    }

    /// Moves every buffered store of `tid` into the FIFO queue, ahead of
    /// whatever is pushed next. Flushed stores ignore their residency
    /// delay — they commit at queue service like SC stores (their write-
    /// buffer slots stay occupied until then).
    fn flush_thread(&mut self, tid: u8) {
        while let Some(e) = self.wbuf[tid as usize].pop_front() {
            self.thread_counts[tid as usize] += 1;
            self.queue.push_back(LsuEntry {
                tid,
                addr: e.addr,
                action: LsuAction::StoreVal { value: e.value },
            });
        }
    }

    /// Ordering-point flush used by the per-core unit when a GSU
    /// instruction starts: see `flush_thread`.
    pub fn flush_thread_for_ordering(&mut self, tid: u8) {
        self.flush_thread(tid);
    }

    /// Stages the source register of `tid`'s vector store, lane `i` from
    /// `values[i]`, before its [`VStoreLanes`](LsuAction::VStoreLanes)
    /// parts are pushed.
    pub fn stage_vector_store(&mut self, tid: u8, values: &[u32]) {
        self.staged[tid as usize] = LaneValues::from_slice(values);
    }

    /// Store-to-load forwarding: the value of the youngest buffered store
    /// of `tid` to exactly `addr`, if any (all data is 4-byte words, so
    /// exact word match is exact overlap).
    fn forward_from_wbuf(&self, tid: u8, addr: u64) -> Option<u32> {
        self.wbuf[tid as usize]
            .iter()
            .rev()
            .find(|e| e.addr == addr)
            .map(|e| e.value)
    }

    /// Enqueues a request issued at cycle `now`.
    ///
    /// Under a non-SC model, plain stores are diverted into the issuing
    /// thread's write buffer, and ordering points (`sc`, vector
    /// loads/stores) first flush that buffer into the queue.
    ///
    /// # Panics
    ///
    /// Panics if a store is pushed while the thread's write buffer is full
    /// (the pipeline must check [`can_accept_store`](Self::can_accept_store)
    /// first).
    pub fn push(&mut self, entry: LsuEntry, now: u64) {
        if matches!(entry.action, LsuAction::StoreVal { .. }) {
            assert!(
                self.can_accept_store(entry.tid),
                "write buffer overflow for thread {}",
                entry.tid
            );
            self.store_slots_used[entry.tid as usize] += 1;
            if self.order.buffers_stores() {
                if let LsuAction::StoreVal { value } = entry.action {
                    let ready = self.drain_ready(entry.addr, now);
                    self.wbuf[entry.tid as usize].push_back(BufferedStore {
                        addr: entry.addr,
                        value,
                        ready,
                    });
                    return;
                }
            }
        } else if self.order.buffers_stores()
            && matches!(
                entry.action,
                LsuAction::ScVal { .. }
                    | LsuAction::VLoadLanes { .. }
                    | LsuAction::VStoreLanes { .. }
            )
        {
            // Ordering point: earlier buffered stores must commit first.
            self.flush_thread(entry.tid);
        }
        self.thread_counts[entry.tid as usize] += 1;
        self.queue.push_back(entry);
    }

    /// Drains one drain-eligible buffered store to the L1 port, if any.
    /// TSO picks each thread's oldest store (per-thread FIFO), round-robin
    /// across threads; the relaxed model picks the earliest-eligible store
    /// machine-wide, which reorders same-thread stores across bank
    /// classes. Same-address stores share a bank and therefore a delay, so
    /// coherence order always matches program order.
    fn drain_one(
        &mut self,
        core: usize,
        mem: &mut MemorySystem,
        now: u64,
    ) -> Option<LsuCompletion> {
        let n = self.wbuf.len();
        let (tid, idx) = match self.order {
            MemoryOrder::Sc => return None,
            MemoryOrder::Tso => {
                let mut pick = None;
                for off in 0..n {
                    let t = (self.drain_rr + off) % n;
                    if self.wbuf[t].front().is_some_and(|e| e.ready <= now) {
                        pick = Some(t);
                        break;
                    }
                }
                let t = pick?;
                self.drain_rr = (t + 1) % n;
                (t, 0)
            }
            MemoryOrder::RelaxedFence => {
                let mut best: Option<(u64, usize, usize)> = None;
                for (t, q) in self.wbuf.iter().enumerate() {
                    for (i, e) in q.iter().enumerate() {
                        if e.ready <= now && best.is_none_or(|b| (e.ready, t, i) < b) {
                            best = Some((e.ready, t, i));
                        }
                    }
                }
                let (_, t, i) = best?;
                (t, i)
            }
        };
        let e = self.wbuf[tid].remove(idx).expect("picked entry exists");
        self.stats.stores += 1;
        self.stats.wbuf_drains += 1;
        self.store_slots_used[tid] -= 1;
        let _ = mem.access(core, tid as u8, MemOp::Store, e.addr, now);
        mem.backing_mut().write_u32(e.addr, e.value);
        mem.oracle_note_store(core, tid as u8, e.addr);
        Some(LsuCompletion::StoreDrained { tid: tid as u8 })
    }

    /// Services at most one request at cycle `now`: the FIFO queue head
    /// if present, otherwise one drain-eligible buffered store. Each
    /// serviced request produces exactly one completion event, returned
    /// by value: a vector part's lanes travel as a mask and inline
    /// [`LaneValues`], so no request heap-allocates here.
    pub fn tick(&mut self, core: usize, mem: &mut MemorySystem, now: u64) -> Option<LsuCompletion> {
        let Some(entry) = self.queue.pop_front() else {
            return self.drain_one(core, mem, now);
        };
        self.thread_counts[entry.tid as usize] -= 1;
        let out = match entry.action {
            LsuAction::LoadTo { rd } => {
                self.stats.loads += 1;
                let r = mem.access(core, entry.tid, MemOp::Load, entry.addr, now);
                let value = match self.forward_from_wbuf(entry.tid, entry.addr) {
                    Some(v) => {
                        self.stats.load_forwards += 1;
                        v
                    }
                    None => mem.backing().read_u32(entry.addr),
                };
                LsuCompletion::ScalarLoad {
                    tid: entry.tid,
                    rd,
                    value,
                    done: r.done,
                }
            }
            LsuAction::StoreVal { value } => {
                self.stats.stores += 1;
                self.store_slots_used[entry.tid as usize] -= 1;
                let _ = mem.access(core, entry.tid, MemOp::Store, entry.addr, now);
                mem.backing_mut().write_u32(entry.addr, value);
                mem.oracle_note_store(core, entry.tid, entry.addr);
                LsuCompletion::StoreDrained { tid: entry.tid }
            }
            LsuAction::LlTo { rd } => {
                self.stats.lls += 1;
                let r = mem.access(core, entry.tid, MemOp::LoadLinked, entry.addr, now);
                let value = match self.forward_from_wbuf(entry.tid, entry.addr) {
                    Some(v) => {
                        self.stats.load_forwards += 1;
                        v
                    }
                    None => mem.backing().read_u32(entry.addr),
                };
                mem.oracle_note_link(core, entry.tid, entry.addr);
                LsuCompletion::ScalarLoad {
                    tid: entry.tid,
                    rd,
                    value,
                    done: r.done,
                }
            }
            LsuAction::ScVal { rd, value } => {
                self.stats.scs += 1;
                let r = mem.access(core, entry.tid, MemOp::StoreCond, entry.addr, now);
                if r.sc_ok {
                    self.stats.sc_successes += 1;
                    mem.backing_mut().write_u32(entry.addr, value);
                    mem.oracle_note_sc_success(core, entry.tid, entry.addr);
                }
                LsuCompletion::ScalarSc {
                    tid: entry.tid,
                    rd,
                    ok: r.sc_ok,
                    done: r.done,
                }
            }
            LsuAction::VLoadLanes { lanes } => {
                self.stats.vector_line_requests += 1;
                let r = mem.access(core, entry.tid, MemOp::Load, entry.addr, now);
                let mut lane_values = LaneValues::default();
                for (lane, addr) in part_lanes(entry.addr, lanes) {
                    lane_values.set(lane, mem.backing().read_u32(addr));
                }
                LsuCompletion::VectorPart {
                    tid: entry.tid,
                    lane_values,
                    done: r.done,
                }
            }
            LsuAction::VStoreLanes { lanes } => {
                self.stats.vector_line_requests += 1;
                let r = mem.access(core, entry.tid, MemOp::Store, entry.addr, now);
                let data = &self.staged[entry.tid as usize];
                for (lane, addr) in part_lanes(entry.addr, lanes) {
                    let value = data.get(lane).expect("vector store data staged");
                    mem.backing_mut().write_u32(addr, value);
                    mem.oracle_note_store(core, entry.tid, addr);
                }
                LsuCompletion::VectorPart {
                    tid: entry.tid,
                    lane_values: LaneValues::default(),
                    done: r.done,
                }
            }
        };
        Some(out)
    }
}

/// The lanes of a vector part with their element addresses: `addr` is the
/// lowest lane's, and consecutive lanes are consecutive elements.
fn part_lanes(addr: u64, lanes: u32) -> impl Iterator<Item = (usize, u64)> {
    let first = lanes.trailing_zeros() as u64;
    bits(lanes).map(move |lane| (lane, addr + ELEM_BYTES * (lane as u64 - first)))
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

    #[test]
    fn load_returns_backing_value() {
        let mut m = mem();
        m.backing_mut().write_u32(0x100, 77);
        let mut lsu = Lsu::new(4, 8);
        lsu.push(
            LsuEntry {
                tid: 0,
                addr: 0x100,
                action: LsuAction::LoadTo { rd: 5 },
            },
            0,
        );
        let c = lsu
            .tick(0, &mut m, 0)
            .expect("one completion per serviced entry");
        match &c {
            LsuCompletion::ScalarLoad {
                tid: 0,
                rd: 5,
                value: 77,
                done,
            } => {
                assert_eq!(*done, 3 + 12 + 280);
            }
            other => panic!("unexpected completion {other:?}"),
        }
        assert_eq!(lsu.stats().loads, 1);
    }

    #[test]
    fn fifo_order_makes_loads_see_own_stores() {
        let mut m = mem();
        let mut lsu = Lsu::new(4, 8);
        lsu.push(
            LsuEntry {
                tid: 0,
                addr: 0x40,
                action: LsuAction::StoreVal { value: 9 },
            },
            0,
        );
        lsu.push(
            LsuEntry {
                tid: 0,
                addr: 0x40,
                action: LsuAction::LoadTo { rd: 1 },
            },
            0,
        );
        let mut now = 0;
        let mut seen = Vec::new();
        while lsu.is_busy() {
            seen.extend(lsu.tick(0, &mut m, now));
            now += 1;
        }
        assert!(matches!(seen[0], LsuCompletion::StoreDrained { tid: 0 }));
        assert!(matches!(
            seen[1],
            LsuCompletion::ScalarLoad { value: 9, .. }
        ));
    }

    #[test]
    fn write_buffer_slots_tracked_per_thread() {
        let mut lsu = Lsu::new(2, 2);
        assert!(lsu.can_accept_store(0));
        lsu.push(
            LsuEntry {
                tid: 0,
                addr: 0,
                action: LsuAction::StoreVal { value: 1 },
            },
            0,
        );
        lsu.push(
            LsuEntry {
                tid: 0,
                addr: 4,
                action: LsuAction::StoreVal { value: 2 },
            },
            0,
        );
        assert!(!lsu.can_accept_store(0));
        assert!(lsu.can_accept_store(1), "other thread unaffected");
        let mut m = mem();
        lsu.tick(0, &mut m, 0);
        assert!(lsu.can_accept_store(0), "slot freed at drain");
    }

    #[test]
    #[should_panic(expected = "write buffer overflow")]
    fn overflow_panics() {
        let mut lsu = Lsu::new(1, 1);
        lsu.push(
            LsuEntry {
                tid: 0,
                addr: 0,
                action: LsuAction::StoreVal { value: 1 },
            },
            0,
        );
        lsu.push(
            LsuEntry {
                tid: 0,
                addr: 4,
                action: LsuAction::StoreVal { value: 2 },
            },
            0,
        );
    }

    #[test]
    fn ll_sc_round_trip_updates_memory() {
        let mut m = mem();
        m.backing_mut().write_u32(0x80, 41);
        let mut lsu = Lsu::new(4, 8);
        lsu.push(
            LsuEntry {
                tid: 2,
                addr: 0x80,
                action: LsuAction::LlTo { rd: 1 },
            },
            0,
        );
        lsu.push(
            LsuEntry {
                tid: 2,
                addr: 0x80,
                action: LsuAction::ScVal { rd: 2, value: 42 },
            },
            0,
        );
        let mut now = 0;
        let mut comps = Vec::new();
        while lsu.is_busy() {
            comps.extend(lsu.tick(0, &mut m, now));
            now += 1;
        }
        assert!(matches!(comps[1], LsuCompletion::ScalarSc { ok: true, .. }));
        assert_eq!(m.backing().read_u32(0x80), 42);
        assert_eq!(lsu.stats().lls, 1);
        assert_eq!(lsu.stats().sc_successes, 1);
    }

    #[test]
    fn sc_without_ll_fails_and_preserves_memory() {
        let mut m = mem();
        m.backing_mut().write_u32(0x80, 5);
        let mut lsu = Lsu::new(4, 8);
        lsu.push(
            LsuEntry {
                tid: 0,
                addr: 0x80,
                action: LsuAction::ScVal { rd: 2, value: 9 },
            },
            0,
        );
        let comp = lsu.tick(0, &mut m, 0).unwrap();
        assert!(matches!(comp, LsuCompletion::ScalarSc { ok: false, .. }));
        assert_eq!(m.backing().read_u32(0x80), 5);
    }

    #[test]
    fn vector_parts_move_data() {
        let mut m = mem();
        m.backing_mut().write_u32_slice(0x100, &[1, 2, 3, 4]);
        let mut lsu = Lsu::new(4, 8);
        lsu.push(
            LsuEntry {
                tid: 1,
                addr: 0x100,
                action: LsuAction::VLoadLanes { lanes: 0b1111 },
            },
            0,
        );
        let comp = lsu.tick(0, &mut m, 0).unwrap();
        match &comp {
            LsuCompletion::VectorPart { lane_values, .. } => {
                let got: Vec<_> = lane_values.iter().collect();
                assert_eq!(got, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A part starting at lane 2: its address is lane 2's element.
        lsu.stage_vector_store(1, &[0, 0, 10, 20]);
        lsu.push(
            LsuEntry {
                tid: 1,
                addr: 0x200,
                action: LsuAction::VStoreLanes { lanes: 0b1100 },
            },
            0,
        );
        lsu.tick(0, &mut m, 1);
        assert_eq!(m.backing().read_u32(0x200), 10);
        assert_eq!(m.backing().read_u32(0x204), 20);
        assert_eq!(lsu.stats().vector_line_requests, 2);
    }

    #[test]
    fn thread_entries_counts_only_that_thread() {
        let mut lsu = Lsu::new(4, 8);
        lsu.push(
            LsuEntry {
                tid: 0,
                addr: 0,
                action: LsuAction::LoadTo { rd: 0 },
            },
            0,
        );
        lsu.push(
            LsuEntry {
                tid: 1,
                addr: 4,
                action: LsuAction::LoadTo { rd: 0 },
            },
            0,
        );
        lsu.push(
            LsuEntry {
                tid: 0,
                addr: 8,
                action: LsuAction::LoadTo { rd: 1 },
            },
            0,
        );
        assert_eq!(lsu.thread_entries(0), 2);
        assert_eq!(lsu.thread_entries(1), 1);
        assert_eq!(lsu.thread_entries(2), 0);
    }
}

// ---- durable-snapshot serialization --------------------------------------

impl glsc_wire::Wire for LsuAction {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        match self {
            LsuAction::LoadTo { rd } => {
                w.put_u8(0);
                rd.encode(w);
            }
            LsuAction::StoreVal { value } => {
                w.put_u8(1);
                value.encode(w);
            }
            LsuAction::LlTo { rd } => {
                w.put_u8(2);
                rd.encode(w);
            }
            LsuAction::ScVal { rd, value } => {
                w.put_u8(3);
                rd.encode(w);
                value.encode(w);
            }
            LsuAction::VLoadLanes { lanes } => {
                w.put_u8(4);
                lanes.encode(w);
            }
            LsuAction::VStoreLanes { lanes } => {
                w.put_u8(5);
                lanes.encode(w);
            }
        }
    }

    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        use glsc_wire::Wire;
        let at = r.pos();
        Ok(match r.get_u8()? {
            0 => LsuAction::LoadTo {
                rd: Wire::decode(r)?,
            },
            1 => LsuAction::StoreVal {
                value: Wire::decode(r)?,
            },
            2 => LsuAction::LlTo {
                rd: Wire::decode(r)?,
            },
            3 => LsuAction::ScVal {
                rd: Wire::decode(r)?,
                value: Wire::decode(r)?,
            },
            4 => LsuAction::VLoadLanes {
                lanes: Wire::decode(r)?,
            },
            5 => LsuAction::VStoreLanes {
                lanes: Wire::decode(r)?,
            },
            _ => {
                return Err(glsc_wire::WireError::Invalid {
                    at,
                    what: "LsuAction tag",
                })
            }
        })
    }
}

glsc_wire::wire_struct!(LsuEntry { tid, addr, action });
glsc_wire::wire_struct!(LsuStats {
    loads,
    stores,
    lls,
    scs,
    sc_successes,
    vector_line_requests,
    fences,
    wbuf_drains,
    load_forwards,
});
glsc_wire::wire_struct!(Lsu {
    queue,
    store_slots_used,
    store_slots_max,
    thread_counts,
    stats,
    order,
    wbuf,
    drain_rr,
    staged,
    banks,
});
