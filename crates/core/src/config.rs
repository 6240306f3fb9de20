//! GLSC implementation-policy knobs.
//!
//! §3.2 of the paper deliberately leaves hardware freedom in *when* a
//! `vgatherlink` element may fail: "(a) another thread has already linked a
//! cache line containing one of the elements, (b) bringing one of the
//! elements into the cache will evict an already linked line, (c) the
//! latency for accessing the element is higher than others in the same
//! set". This struct selects design (c), the one the ablation runs both
//! ways; the default accepts all elements (failures then come only from
//! aliasing and lost reservations, matching the 1×1 failure rates of
//! Table 4), and a new link displaces another thread's.

/// Policy choices for the GLSC hardware (paper §3.2). The fixed Table 1
/// timings of the units are constants: the GSU's `4 + SIMD-width` minimum
/// latency and the LSU's 8 write-buffer entries per thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GlscConfig {
    /// `vgatherlink` fails elements whose line misses the L1 instead of
    /// waiting for the fill (design freedom (c) of §3.2). Reduces the
    /// reservation-holding window under contention.
    pub fail_on_l1_miss: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_accepts_every_element() {
        let c = GlscConfig::default();
        assert!(!c.fail_on_l1_miss);
    }
}

glsc_wire::wire_struct!(GlscConfig { fail_on_l1_miss });
