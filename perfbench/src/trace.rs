//! In-memory spans for the traced run.
//!
//! A span is one call into a layer's public function, recorded from the
//! benchmark's own code: name, start, end, the span that caused it, and
//! the job it belongs to. Spans stay in memory until the run ends and
//! are then written out as TSV. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer function, e.g. `sim.machine.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    /// Nanoseconds since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The job the span belongs to, if any.
    pub job: Option<u32>,
}

/// Collects spans; nesting follows the order of [`Tracer::enter`] and
/// [`Tracer::exit`] calls.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str, job: Option<u32>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, job: Option<u32>, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, job);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a span whose interval was measured elsewhere (for example
    /// on another thread), as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, job: Option<u32>, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent: self.open.last().copied(),
            job,
        });
    }

    /// The start and end of `span` as instants.
    pub fn interval(&self, span: &Span) -> (Instant, Instant) {
        let at = |ns: u64| self.origin + std::time::Duration::from_nanos(ns);
        (at(span.start), at(span.end))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as TSV: name, start, end, parent, job.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "name\tstart_ns\tend_ns\tparent\tjob")?;
        for s in &self.spans {
            let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start,
                s.end,
                opt(s.parent.map(|p| p as u64)),
                opt(s.job.map(u64::from))
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, in nanoseconds.
    pub total_ns: u64,
    /// Sum of their self times, in nanoseconds.
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            job: None,
        }
    }

    #[test]
    fn self_time_subtracts_sibling_children() {
        let spans = [
            span("job", 0, 100, None),
            span("run", 10, 40, Some(0)),
            span("validate", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
    }

    #[test]
    fn self_time_counts_only_direct_children() {
        // job ⊃ run ⊃ step: the grandchild is removed from run's self
        // time, not again from job's.
        let spans = [
            span("job", 0, 100, None),
            span("run", 10, 90, Some(0)),
            span("step", 20, 60, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 40]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        // Children measured on other threads may overlap each other and
        // stick out of the parent; only the covered part counts.
        let spans = [
            span("session", 100, 200, None),
            span("a", 90, 130, Some(0)),
            span("b", 120, 150, Some(0)),
            span("c", 190, 260, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn tracer_nests_by_call_order_and_totals_by_name() {
        let mut t = Tracer::new();
        let job = t.enter("job", Some(3));
        t.span("run", Some(3), || std::hint::black_box(1 + 1));
        t.span("run", Some(3), || ());
        t.exit(job);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans.iter().filter(|s| s.name == "run").count(), 2);
        assert!(spans[0].end >= spans[2].end);
        let mut tsv = Vec::new();
        t.write_tsv(&mut tsv).unwrap();
        assert_eq!(String::from_utf8(tsv).unwrap().lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", None);
        let _inner = t.enter("inner", None);
        t.exit(outer);
    }
}
