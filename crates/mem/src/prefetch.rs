//! Per-core hardware stride prefetcher (paper §4.1: "each core has a
//! private L1 data cache with a hardware stride prefetcher").
//!
//! A small table tracks one stream per SMT thread. When the same line
//! stride is observed twice in a row, the prefetcher emits the addresses of
//! the next `degree` lines along the stride.

/// Stride detection state for one stream.
#[derive(Clone, Copy, Debug, Default)]
struct Stream {
    last_line: u64,
    stride: i64,
    confirmed: bool,
    valid: bool,
}

/// A per-core stride prefetcher with one tracked stream per SMT thread.
#[derive(Clone, Debug)]
pub struct StridePrefetcher {
    streams: Vec<Stream>,
    degree: usize,
    line_bytes: u64,
}

impl StridePrefetcher {
    /// Creates a prefetcher for `threads` SMT streams issuing `degree`
    /// lines ahead.
    pub fn new(threads: usize, degree: usize, line_bytes: u64) -> Self {
        Self {
            streams: vec![Stream::default(); threads],
            degree,
            line_bytes,
        }
    }

    /// Observes a demand access from `tid` to line address `line`; returns
    /// the line addresses to prefetch (empty until a stride is confirmed).
    pub fn observe(&mut self, tid: usize, line: u64) -> Vec<u64> {
        let s = &mut self.streams[tid];
        let mut out = Vec::new();
        if s.valid {
            if line == s.last_line {
                return out; // same line: no new information
            }
            let stride = line as i64 - s.last_line as i64;
            if s.stride == stride {
                if s.confirmed {
                    // Steady stream: fetch ahead.
                    for k in 1..=self.degree as i64 {
                        let target = line as i64 + stride * k;
                        if target >= 0 {
                            out.push(target as u64);
                        }
                    }
                } else {
                    s.confirmed = true;
                    // First confirmation: fetch the immediate next line.
                    let target = line as i64 + stride;
                    if target >= 0 {
                        out.push(target as u64);
                    }
                }
            } else {
                s.confirmed = false;
            }
            s.stride = stride;
        }
        s.valid = true;
        s.last_line = line;
        debug_assert_eq!(line % self.line_bytes, 0, "prefetcher fed non-line address");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_confirms_then_prefetches() {
        let mut p = StridePrefetcher::new(1, 2, 64);
        assert!(p.observe(0, 0).is_empty()); // first touch
        assert!(p.observe(0, 64).is_empty()); // stride candidate
        assert_eq!(p.observe(0, 128), vec![192]); // confirmed
        assert_eq!(p.observe(0, 192), vec![256, 320]); // steady
    }

    #[test]
    fn random_stream_never_confirms() {
        let mut p = StridePrefetcher::new(1, 2, 64);
        assert!(p.observe(0, 0).is_empty());
        assert!(p.observe(0, 640).is_empty());
        assert!(p.observe(0, 64).is_empty());
        assert!(p.observe(0, 1024).is_empty());
    }

    #[test]
    fn negative_stride_supported() {
        let mut p = StridePrefetcher::new(1, 1, 64);
        assert!(p.observe(0, 640).is_empty());
        assert!(p.observe(0, 576).is_empty());
        assert_eq!(p.observe(0, 512), vec![448]);
    }

    #[test]
    fn streams_are_per_thread() {
        let mut p = StridePrefetcher::new(2, 1, 64);
        p.observe(0, 0);
        p.observe(1, 1024);
        p.observe(0, 64);
        p.observe(1, 2048);
        // Thread 0 confirms independently of thread 1's unrelated stream.
        assert_eq!(p.observe(0, 128), vec![192]);
    }

    #[test]
    fn repeated_same_line_is_ignored() {
        let mut p = StridePrefetcher::new(1, 1, 64);
        p.observe(0, 0);
        p.observe(0, 64);
        assert!(p.observe(0, 64).is_empty());
        assert_eq!(p.observe(0, 128), vec![192]);
    }
}

glsc_wire::wire_struct!(Stream {
    last_line,
    stride,
    confirmed,
    valid,
});
glsc_wire::wire_struct!(StridePrefetcher {
    streams,
    degree,
    line_bytes,
});
