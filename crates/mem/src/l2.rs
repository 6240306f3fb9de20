//! Shared, inclusive, banked L2 with in-line directory state.
//!
//! Per the paper (§2, §4.1): "all cores share an inclusive, physically
//! distributed second-level cache... The shared cache holds directory
//! information for each cache line to maintain coherence amongst the
//! private caches." Each bank serializes requests; contention is modeled
//! with a per-bank busy horizon.

use crate::occupancy::BusyHorizon;
use crate::tags::TagArray;

/// Per-line L2 payload: the MSI directory entry plus bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L2Payload {
    /// Bitmask of cores holding the line in Shared state.
    pub sharers: u32,
    /// Core holding the line Modified, if any.
    pub owner: Option<u8>,
    /// Whether the L2 copy is dirty with respect to memory.
    pub dirty: bool,
    /// Cycle the line's data arrived from DRAM (miss combining).
    pub ready_at: u64,
}

impl L2Payload {
    /// A freshly filled line with no private copies.
    pub fn clean(ready_at: u64) -> Self {
        Self {
            sharers: 0,
            owner: None,
            dirty: false,
            ready_at,
        }
    }

    /// Whether any L1 holds this line (sharer or owner).
    pub fn has_private_copies(&self) -> bool {
        self.sharers != 0 || self.owner.is_some()
    }

    /// Iterates over sharer core ids.
    pub fn sharer_cores(&self) -> impl Iterator<Item = usize> + '_ {
        (0..32).filter(|c| self.sharers & (1 << c) != 0)
    }
}

/// One bank of the shared L2: a tag array plus a busy horizon for
/// contention modeling (the same [`BusyHorizon`] discipline the NoC's
/// links use, so bank and link occupancy accounting cannot drift apart).
#[derive(Clone, Debug)]
pub struct L2Bank {
    /// Tag + directory array.
    pub tags: TagArray<L2Payload>,
    /// Busy horizon serializing requests to this bank.
    pub busy: BusyHorizon,
}

impl L2Bank {
    /// Creates a bank with the given geometry.
    pub fn new(sets: usize, assoc: usize, line_bytes: u64) -> Self {
        Self {
            tags: TagArray::new(sets, assoc, line_bytes),
            busy: BusyHorizon::new(),
        }
    }

    /// Reserves the bank for one request arriving at `arrival`; returns the
    /// cycle at which the bank starts serving it.
    pub fn reserve(&mut self, arrival: u64, occupancy: u64) -> u64 {
        self.busy.reserve(arrival, occupancy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_helpers() {
        let mut p = L2Payload::clean(5);
        assert!(!p.has_private_copies());
        p.sharers = 0b101;
        assert!(p.has_private_copies());
        assert_eq!(p.sharer_cores().collect::<Vec<_>>(), vec![0, 2]);
        p.sharers = 0;
        p.owner = Some(3);
        assert!(p.has_private_copies());
    }

    #[test]
    fn bank_serializes_requests() {
        let mut b = L2Bank::new(4, 2, 64);
        assert_eq!(b.reserve(10, 2), 10);
        assert_eq!(b.reserve(10, 2), 12); // queued behind the first
        assert_eq!(b.reserve(30, 2), 30); // idle again
    }
}

glsc_wire::wire_struct!(L2Payload {
    sharers,
    owner,
    dirty,
    ready_at,
});
glsc_wire::wire_struct!(L2Bank { tags, busy });
