//! Per-hardware-thread pipeline state: status, scoreboard, statistics.

use crate::arch::ThreadArch;
use crate::report::ThreadStats;
use glsc_core::LaneValues;
use glsc_isa::Reg;

/// Why a thread is not currently fetching/issuing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ThreadStatus {
    /// Fetching and issuing normally.
    Running,
    /// Blocked on a GSU instruction (gather/scatter/GLSC are blocking,
    /// §4.1). `sync` records whether the instruction was in a
    /// synchronization region.
    BlockedGsu {
        /// Sync-region flag of the blocking instruction.
        sync: bool,
    },
    /// Blocked on a unit-stride vector load/store split into line parts.
    BlockedVector {
        /// Outstanding line requests.
        pending_parts: usize,
        /// Latest completion cycle seen so far.
        done: u64,
        /// Destination vector register for loads.
        vd: Option<u8>,
        /// Lanes loaded so far.
        lanes: LaneValues,
        /// Sync-region flag of the blocking instruction.
        sync: bool,
    },
    /// Waiting at a global barrier.
    AtBarrier,
    /// Finished (`halt` executed).
    Halted,
}

/// One hardware thread: architectural state plus pipeline bookkeeping.
#[derive(Clone, Debug)]
pub struct Thread {
    /// ISA-visible state.
    pub arch: ThreadArch,
    /// Pipeline status.
    pub status: ThreadStatus,
    /// Cycle at which each scalar register's value becomes readable.
    pub reg_ready: [u64; glsc_isa::NUM_SCALAR_REGS],
    /// Whether the pending producer of each register was a memory access
    /// (for memory-stall attribution).
    pub reg_from_mem: [bool; glsc_isa::NUM_SCALAR_REGS],
    /// The thread may not issue before this cycle (taken-branch redirect,
    /// serializing vector ops).
    pub next_issue_at: u64,
    /// Per-thread statistics.
    pub stats: ThreadStats,
}

/// Sentinel for "pending with unknown completion time" (queued in the LSU).
pub const PENDING: u64 = u64::MAX;

impl Thread {
    /// Creates a runnable thread of the given SIMD width.
    pub fn new(width: usize) -> Self {
        Self {
            arch: ThreadArch::new(width),
            status: ThreadStatus::Running,
            reg_ready: [0; glsc_isa::NUM_SCALAR_REGS],
            reg_from_mem: [false; glsc_isa::NUM_SCALAR_REGS],
            next_issue_at: 0,
            stats: ThreadStats::default(),
        }
    }

    /// Whether `r` holds its final value at cycle `now`.
    pub fn reg_is_ready(&self, r: Reg, now: u64) -> bool {
        self.reg_ready[r.index()] <= now
    }

    /// Marks `r` as produced by a memory access with unknown completion.
    pub fn mark_pending_mem(&mut self, r: Reg) {
        self.reg_ready[r.index()] = PENDING;
        self.reg_from_mem[r.index()] = true;
    }

    /// Marks `r` as produced by an ALU op completing at `ready`.
    pub fn mark_alu(&mut self, r: Reg, ready: u64) {
        self.reg_ready[r.index()] = ready;
        self.reg_from_mem[r.index()] = false;
    }

    /// Delivers a memory value into `r`, readable at `ready`.
    pub fn deliver_mem(&mut self, r_index: u8, value: u64, ready: u64) {
        let i = r_index as usize;
        self.arch.set_reg(Reg::new(r_index), value);
        self.reg_ready[i] = ready;
        self.reg_from_mem[i] = true;
    }

    /// Whether the thread has halted.
    pub fn is_halted(&self) -> bool {
        self.status == ThreadStatus::Halted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoreboard_lifecycle() {
        let mut t = Thread::new(4);
        let r = Reg::new(3);
        assert!(t.reg_is_ready(r, 0));
        t.mark_pending_mem(r);
        assert!(!t.reg_is_ready(r, 1_000_000));
        t.deliver_mem(3, 42, 10);
        assert!(!t.reg_is_ready(r, 9));
        assert!(t.reg_is_ready(r, 10));
        assert_eq!(t.arch.reg(r), 42);
        assert!(t.reg_from_mem[3]);
        t.mark_alu(r, 12);
        assert!(!t.reg_from_mem[3]);
    }

    #[test]
    fn fresh_thread_is_running() {
        let t = Thread::new(1);
        assert_eq!(t.status, ThreadStatus::Running);
        assert!(!t.is_halted());
    }
}

// ---- durable-snapshot serialization --------------------------------------

impl glsc_wire::Wire for ThreadStatus {
    fn encode(&self, w: &mut glsc_wire::Writer) {
        match self {
            ThreadStatus::Running => w.put_u8(0),
            ThreadStatus::BlockedGsu { sync } => {
                w.put_u8(1);
                sync.encode(w);
            }
            ThreadStatus::BlockedVector {
                pending_parts,
                done,
                vd,
                lanes,
                sync,
            } => {
                w.put_u8(2);
                pending_parts.encode(w);
                done.encode(w);
                vd.encode(w);
                lanes.encode(w);
                sync.encode(w);
            }
            ThreadStatus::AtBarrier => w.put_u8(3),
            ThreadStatus::Halted => w.put_u8(4),
        }
    }
    fn decode(r: &mut glsc_wire::Reader<'_>) -> Result<Self, glsc_wire::WireError> {
        use glsc_wire::Wire;
        let at = r.pos();
        Ok(match r.get_u8()? {
            0 => ThreadStatus::Running,
            1 => ThreadStatus::BlockedGsu {
                sync: Wire::decode(r)?,
            },
            2 => ThreadStatus::BlockedVector {
                pending_parts: Wire::decode(r)?,
                done: Wire::decode(r)?,
                vd: Wire::decode(r)?,
                lanes: Wire::decode(r)?,
                sync: Wire::decode(r)?,
            },
            3 => ThreadStatus::AtBarrier,
            4 => ThreadStatus::Halted,
            _ => {
                return Err(glsc_wire::WireError::Invalid {
                    at,
                    what: "ThreadStatus tag",
                })
            }
        })
    }
}

glsc_wire::wire_struct!(Thread {
    arch,
    status,
    reg_ready,
    reg_from_mem,
    next_issue_at,
    stats,
});
