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
    /// the line addresses to prefetch (none until a stride is confirmed).
    pub fn observe(&mut self, tid: usize, line: u64) -> impl Iterator<Item = u64> {
        debug_assert_eq!(line % self.line_bytes, 0, "prefetcher fed non-line address");
        let s = &mut self.streams[tid];
        // Lines to fetch along the stride; none for a repeat of the same
        // line, which carries no new information.
        let (ahead, stride) = if s.valid && line != s.last_line {
            let stride = line as i64 - s.last_line as i64;
            let ahead = if s.stride != stride {
                s.confirmed = false;
                0
            } else if s.confirmed {
                // Steady stream: fetch ahead.
                self.degree as i64
            } else {
                // First confirmation: fetch the immediate next line.
                s.confirmed = true;
                1
            };
            s.stride = stride;
            (ahead, stride)
        } else {
            (0, 0)
        };
        s.valid = true;
        s.last_line = line;
        (1..=ahead)
            .map(move |k| line as i64 + stride * k)
            .filter(|&target| target >= 0)
            .map(|target| target as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe(p: &mut StridePrefetcher, tid: usize, line: u64) -> Vec<u64> {
        p.observe(tid, line).collect()
    }

    #[test]
    fn sequential_stream_confirms_then_prefetches() {
        let mut p = StridePrefetcher::new(1, 2, 64);
        assert!(observe(&mut p, 0, 0).is_empty()); // first touch
        assert!(observe(&mut p, 0, 64).is_empty()); // stride candidate
        assert_eq!(observe(&mut p, 0, 128), vec![192]); // confirmed
        assert_eq!(observe(&mut p, 0, 192), vec![256, 320]); // steady
    }

    #[test]
    fn random_stream_never_confirms() {
        let mut p = StridePrefetcher::new(1, 2, 64);
        assert!(observe(&mut p, 0, 0).is_empty());
        assert!(observe(&mut p, 0, 640).is_empty());
        assert!(observe(&mut p, 0, 64).is_empty());
        assert!(observe(&mut p, 0, 1024).is_empty());
    }

    #[test]
    fn negative_stride_supported() {
        let mut p = StridePrefetcher::new(1, 1, 64);
        assert!(observe(&mut p, 0, 640).is_empty());
        assert!(observe(&mut p, 0, 576).is_empty());
        assert_eq!(observe(&mut p, 0, 512), vec![448]);
    }

    #[test]
    fn streams_are_per_thread() {
        let mut p = StridePrefetcher::new(2, 1, 64);
        observe(&mut p, 0, 0);
        observe(&mut p, 1, 1024);
        observe(&mut p, 0, 64);
        observe(&mut p, 1, 2048);
        // Thread 0 confirms independently of thread 1's unrelated stream.
        assert_eq!(observe(&mut p, 0, 128), vec![192]);
    }

    #[test]
    fn repeated_same_line_is_ignored() {
        let mut p = StridePrefetcher::new(1, 1, 64);
        observe(&mut p, 0, 0);
        observe(&mut p, 0, 64);
        assert!(observe(&mut p, 0, 64).is_empty());
        assert_eq!(observe(&mut p, 0, 128), vec![192]);
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
