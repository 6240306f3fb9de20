//! Metric names, units, and the result line.
//!
//! Every workload reports every metric: the end-to-end set on an
//! untraced run, the per-layer set on a traced run. A per-layer metric
//! whose layer a workload never calls reads 0 with 0 samples.

use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 9] = [
    ("solo_mcyc_per_s", "Mcyc/s"),
    ("fleet_mcyc_per_s", "Mcyc/s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p80_ms", "ms"),
    ("cached_jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("glsc_speedup", "x"),
];

/// Per-layer metrics: (name, unit).
pub const PER_LAYER: [(&str, &str); 45] = [
    ("sim.machine.run_ns_per_cycle", "ns"),
    ("sim.machine.run_ns_per_instr", "ns"),
    ("sim.machine.run_share", "frac"),
    ("sim.cpu.instructions", "count"),
    ("sim.cpu.ipc", "instr/cycle"),
    ("sim.cpu.mem_stall_frac", "frac"),
    ("sim.cpu.sync_frac", "frac"),
    ("core.lsu.sc_success_frac", "frac"),
    ("core.gsu.atomic_line_requests", "count"),
    ("core.gsu.elem_failure_rate", "frac"),
    ("mem.l1.accesses", "count"),
    ("mem.l1.miss_rate", "frac"),
    ("mem.l2.misses", "count"),
    ("mem.system.invalidations", "count"),
    ("mem.noc.msgs", "count"),
    ("mem.noc.queue_cycles_per_msg", "cycles"),
    ("mem.arbitration.sc_failures", "count"),
    ("mem.arbitration.max_streak", "count"),
    ("core.lsu.wbuf_drains", "count"),
    ("core.lsu.load_forwards", "count"),
    ("kernels.build_ms", "ms"),
    ("kernels.validate_ms", "ms"),
    ("kernels.image_publish_ms", "ms"),
    ("kernels.image_apply_ms", "ms"),
    ("sim.machine.new_ms", "ms"),
    ("sim.fleet.overhead_frac", "frac"),
    ("sim.codec.snapshot_encode_ms", "ms"),
    ("sim.codec.snapshot_decode_ms", "ms"),
    ("sim.codec.snapshot_bytes", "bytes"),
    ("serve.service.checkpoints_per_job", "count"),
    ("serve.service.io_write_mb", "MB"),
    ("serve.journal.append_ms", "ms"),
    ("serve.journal.records_per_job", "count"),
    ("serve.session.admit_ms", "ms"),
    ("bench.store.save_ms", "ms"),
    ("bench.store.load_ms", "ms"),
    ("bench.codec.report_bytes", "bytes"),
    ("serve.proto.encode_us", "us"),
    ("serve.proto.decode_us", "us"),
    ("serve.proto.frame_bytes", "bytes"),
    ("serve.service.cache_hit_frac", "frac"),
    ("serve.spawn_ms", "ms"),
    ("serve.session.inproc_s", "s"),
    ("host.runq_wait_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// One measured value and the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    /// The metric's value in its unit.
    pub value: f64,
    /// Samples (jobs, passes, sessions, frames) the value aggregates.
    pub samples: usize,
}

/// Values by metric name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, Value>);

impl Metrics {
    /// Sets `name` (which must be in `set`) to `value` over `samples`.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, Value { value, samples });
    }

    /// The value of `name`, if set.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).copied()
    }

    /// Checks that every metric of `set` is present and finite, and
    /// nothing else is. Metrics of idle layers are filled in as zero
    /// when `zero_fill` is set.
    pub fn complete(
        &mut self,
        set: &[(&'static str, &'static str)],
        zero_fill: bool,
    ) -> Result<(), String> {
        for (name, _) in set {
            if zero_fill {
                self.0.entry(name).or_insert(Value {
                    value: 0.0,
                    samples: 0,
                });
            }
        }
        for (name, v) in &self.0 {
            if !set.iter().any(|(n, _)| n == name) {
                return Err(format!("metric {name} is not in the reported set"));
            }
            if !v.value.is_finite() {
                return Err(format!("metric {name} is {}", v.value));
            }
        }
        match set.iter().find(|(n, _)| !self.0.contains_key(n)) {
            Some((missing, _)) => Err(format!("metric {missing} was not measured")),
            None => Ok(()),
        }
    }

    /// A human-readable table: name, value, unit, samples.
    pub fn table(&self, set: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for (name, unit) in set {
            if let Some(v) = self.0.get(name) {
                out.push_str(&format!(
                    "{name:<36} {:>18.6} {unit:<12} n={}\n",
                    v.value, v.samples
                ));
            }
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric of `set` with its unit.
    pub fn result_line(
        &self,
        set: &[(&'static str, &'static str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let metrics: Vec<String> = set
            .iter()
            .filter_map(|(name, unit)| {
                let v = self.0.get(name)?;
                Some(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(v.value)
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// `x` with all its digits; integral values keep a `.0` so every value
/// reads as a number of the same kind.
fn json_number(x: f64) -> String {
    let s = format!("{x:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_use_the_allowed_alphabet() {
        let all: Vec<&(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(all[..i].iter().all(|(n, _)| n != name), "{name} twice");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = json.matches("\"unit\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_has_every_metric_and_all_digits() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.812_734_567_891, 5);
        m.set("glsc_speedup", 2.0, 1);
        assert!(m.complete(&END_TO_END, false).is_err(), "incomplete set");
        let line = m.result_line(&END_TO_END, true, 56, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 56, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.812734567891, \"unit\": \"s\"}"));
        assert!(line.contains("\"glsc_speedup\": {\"value\": 2.0, \"unit\": \"x\"}"));
    }

    #[test]
    fn idle_layers_fill_as_zero_and_strays_are_refused() {
        let mut m = Metrics::default();
        m.set("sim.cpu.instructions", 10.0, 1);
        m.complete(&PER_LAYER, true).unwrap();
        assert_eq!(m.get("serve.spawn_ms").unwrap().samples, 0);
        m.set("not.a.metric", 1.0, 1);
        assert!(m.complete(&PER_LAYER, true).is_err());
        let mut nan = Metrics::default();
        nan.set("setup_s", f64::NAN, 1);
        assert!(nan.complete(&END_TO_END, true).unwrap_err().contains("NaN"));
    }
}
