//! Per-layer metrics shared by every workload: the simulated counts read
//! from `RunReport`s, and per-pass span sums.

use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::{self_times, LayerTotal, Span};
use glsc_sim::RunReport;
use std::collections::BTreeMap;

/// The exact simulated counts of one job set, summed over its jobs.
/// They explain each workload's host ns per cycle and stay identical
/// under any change that only speeds up the simulator.
pub fn sim_counts(reports: &[&RunReport], m: &mut Metrics) {
    let n = reports.len();
    let sum = |f: &dyn Fn(&RunReport) -> u64| -> u64 { reports.iter().map(|r| f(r)).sum() };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let threads = |f: &dyn Fn(&glsc_sim::ThreadStats) -> u64| -> u64 {
        reports.iter().flat_map(|r| r.threads.iter()).map(f).sum()
    };
    let cycles = sum(&|r| r.cycles);
    let instructions = sum(&|r| r.total_instructions());
    let active = threads(&|t| t.active_cycles);
    m.set("sim.cpu.instructions", instructions as f64, n);
    m.set("sim.cpu.ipc", ratio(instructions, cycles), n);
    m.set(
        "sim.cpu.mem_stall_frac",
        ratio(threads(&|t| t.mem_stall_cycles), active),
        n,
    );
    m.set(
        "sim.cpu.sync_frac",
        ratio(threads(&|t| t.sync_cycles), active),
        n,
    );
    m.set(
        "core.lsu.sc_success_frac",
        ratio(sum(&|r| r.lsu.sc_successes), sum(&|r| r.lsu.scs)),
        n,
    );
    m.set(
        "core.gsu.atomic_line_requests",
        sum(&|r| r.gsu.atomic_line_requests) as f64,
        n,
    );
    let elem_failures =
        sum(&|r| r.gsu.sc_fail_alias + r.gsu.sc_fail_reservation + r.gsu.gl_elem_failures);
    let elem_attempts = sum(&|r| r.gsu.sc_elem_attempts + r.gsu.gl_elem_attempts);
    m.set(
        "core.gsu.elem_failure_rate",
        ratio(elem_failures, elem_attempts),
        n,
    );
    let l1 = sum(&|r| r.mem.l1_accesses());
    m.set("mem.l1.accesses", l1 as f64, n);
    m.set("mem.l1.miss_rate", ratio(sum(&|r| r.mem.l1_misses), l1), n);
    m.set("mem.l2.misses", sum(&|r| r.mem.l2_misses) as f64, n);
    m.set(
        "mem.system.invalidations",
        sum(&|r| r.mem.invalidations) as f64,
        n,
    );
    let msgs = sum(&|r| r.mem.noc.total_msgs());
    m.set("mem.noc.msgs", msgs as f64, n);
    m.set(
        "mem.noc.queue_cycles_per_msg",
        ratio(sum(&|r| r.mem.noc.queue_cycles), msgs),
        n,
    );
    m.set(
        "mem.arbitration.sc_failures",
        sum(&|r| r.mem.sc_failures) as f64,
        n,
    );
    let streak = reports
        .iter()
        .map(|r| r.max_sc_failure_streak())
        .max()
        .unwrap_or(0);
    m.set("mem.arbitration.max_streak", streak as f64, n);
    m.set(
        "core.lsu.wbuf_drains",
        sum(&|r| r.lsu.wbuf_drains) as f64,
        n,
    );
    m.set(
        "core.lsu.load_forwards",
        sum(&|r| r.lsu.load_forwards) as f64,
        n,
    );
}

/// For every span named `pass`, the totals by name of the spans below
/// it (children, grandchildren, ...), in pass order.
pub fn pass_sums(spans: &[Span], pass: &str) -> Vec<BTreeMap<&'static str, LayerTotal>> {
    let selfs = self_times(spans);
    let mut out = Vec::new();
    let mut index: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == pass {
            index.insert(i, out.len());
            out.push(BTreeMap::new());
        }
    }
    for (i, s) in spans.iter().enumerate() {
        let mut up = s.parent;
        while let Some(p) = up {
            if let Some(&k) = index.get(&p) {
                let t: &mut LayerTotal = out[k].entry(spans[i].name).or_default();
                t.count += 1;
                t.total_ns += s.end - s.start;
                t.self_ns += selfs[i];
                break;
            }
            up = spans[p].parent;
        }
    }
    out
}

/// Median over passes of one layer's summed span time, in ms, with the
/// number of passes.
pub fn median_pass_ms(passes: &[BTreeMap<&'static str, LayerTotal>], name: &str) -> (f64, usize) {
    let xs: Vec<f64> = passes
        .iter()
        .map(|p| p.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6))
        .collect();
    (median(&xs).unwrap_or(0.0), xs.len())
}

/// Durations in seconds of every span named `name`.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 / 1e9)
        .collect()
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
    fn pass_sums_collect_descendants_per_pass() {
        let spans = [
            span("solo.pass", 0, 100, None),
            span("job", 0, 50, Some(0)),
            span("sim.machine.run", 10, 40, Some(1)),
            span("solo.pass", 100, 200, None),
            span("job", 100, 190, Some(3)),
            span("sim.machine.run", 110, 170, Some(4)),
            span("fleet.pass", 200, 300, None),
            span("sim.machine.run", 210, 220, Some(6)),
        ];
        let passes = pass_sums(&spans, "solo.pass");
        assert_eq!(passes.len(), 2);
        assert_eq!(passes[0]["sim.machine.run"].total_ns, 30);
        assert_eq!(passes[1]["job"].self_ns, 30);
        assert_eq!(median_pass_ms(&passes, "sim.machine.run"), (45.0 / 1e6, 2));
        assert_eq!(durations_s(&spans, "fleet.pass"), vec![100.0 / 1e9]);
    }

    #[test]
    fn counts_sum_over_jobs_and_take_the_worst_streak() {
        let mut a = RunReport {
            cycles: 100,
            ..RunReport::default()
        };
        a.mem.l1_hits = 30;
        a.mem.l1_misses = 10;
        let mut b = a.clone();
        b.cycles = 300;
        b.mem.l1_misses = 30;
        let mut m = Metrics::default();
        sim_counts(&[&a, &b], &mut m);
        assert_eq!(m.get("mem.l1.accesses").unwrap().value, 100.0);
        assert_eq!(m.get("mem.l1.miss_rate").unwrap().value, 0.4);
        assert_eq!(m.get("mem.noc.queue_cycles_per_msg").unwrap().value, 0.0);
        assert_eq!(m.get("sim.cpu.ipc").unwrap().samples, 2);
    }
}
