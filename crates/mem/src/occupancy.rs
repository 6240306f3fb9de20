//! Shared busy-horizon occupancy accounting.
//!
//! Both the banked L2 ([`crate::L2Bank`]) and every interconnect link
//! ([`crate::Noc`]) serialize requests the same way: a resource is held
//! for a fixed number of cycles per message, and a request arriving while
//! the resource is busy waits until it frees. Historically the L2 carried
//! its own private `next_free` field; the NoC work folded the accounting
//! into this one utility so bank and link contention provably follow the
//! same reservation discipline.

/// A single-server busy horizon: the earliest cycle at which the resource
/// can accept another request. Reservations are processed in call order,
/// which the simulator guarantees is deterministic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusyHorizon {
    next_free: u64,
}

impl BusyHorizon {
    /// A horizon that is free from cycle 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the resource for one request arriving at `arrival`,
    /// holding it for `occupancy` cycles; returns the cycle at which the
    /// resource starts serving the request (`>= arrival`).
    pub fn reserve(&mut self, arrival: u64, occupancy: u64) -> u64 {
        let start = arrival.max(self.next_free);
        self.next_free = start + occupancy;
        start
    }

    /// The first cycle at which the resource is free again.
    #[cfg(test)]
    fn next_free(&self) -> u64 {
        self.next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_back_to_back_arrivals() {
        let mut h = BusyHorizon::new();
        assert_eq!(h.reserve(10, 2), 10);
        assert_eq!(h.reserve(10, 2), 12); // queued behind the first
        assert_eq!(h.reserve(30, 2), 30); // idle again
        assert_eq!(h.next_free(), 32);
    }

    #[test]
    fn zero_occupancy_never_queues() {
        let mut h = BusyHorizon::new();
        assert_eq!(h.reserve(5, 0), 5);
        assert_eq!(h.reserve(5, 0), 5);
        assert_eq!(h.next_free(), 5);
    }
}

glsc_wire::wire_struct!(BusyHorizon { next_free });
